"""Span recorder for the traced run.

Every public function of the seven library modules is wrapped at its
module attribute, including names one module imports from another (the
`solve_w1` that `isoperim` calls). Calls inside a module go through the
module's globals, so they are wrapped too. A span is (name, start, end,
parent index, job id); spans stay in memory and are written once, at
exit. While a count hook is set for a function, it reads the call's
public result fields into named counts.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time

LAYERS = ("mmspace", "w1solve", "rays", "disint", "monge1d", "curvature", "isoperim")


class Recorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, job]
        self.enabled = False
        self.job = None
        self.counts = collections.defaultdict(float)
        self.samples = collections.defaultdict(list)
        self.hooks = {}          # span name -> f(recorder, args, kwargs, result, error)
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else None, self.job])
            self._stack.append(idx)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
                hook = self.hooks.get(name)
                if hook is not None:
                    hook(self, args, kwargs, result, error)
        return traced

    def install(self, package):
        """Wrap the layer modules' public functions; returns an undo list."""
        undo = []
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in LAYERS:
                    continue
                setattr(module, attr, self.wrap(f"{home}.{obj.__name__}", obj))
                undo.append((module, attr, obj))
        return undo

    def self_times(self, job_prefix) -> dict:
        """Span name -> summed self time of the spans whose job id starts
        with `job_prefix`."""
        child = collections.defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = collections.defaultdict(float)
        for idx, (name, start, end, parent, job) in enumerate(self.spans):
            if job is not None and job.startswith(job_prefix):
                out[name] += (end - start) - child[idx]
        return out

    def to_json(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]

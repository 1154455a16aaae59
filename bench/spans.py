"""Spans around the public calls into each frogmodel layer.

The tracer replaces module attributes and methods with wrappers that record a
span (name, start, end, parent) per call, and restores the originals when the
traced block ends.  Nothing inside the program is changed: every wrapper sits
at a layer boundary and is installed from this file.

Self time is accumulated as spans close (a span's duration minus the time its
direct child spans cover), so aggregates need no second pass.  Raw spans are
kept in memory only while ``keep_spans`` is true and written out once, at the
end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)    # name -> summed duration
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)     # named counters bumped by hooks
        self.spans = []                    # (name, start, end, parent index)
        self.keep_spans = True
        self._stack = []                   # [name, start, child time, span index]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, on_result=None):
        """``fn`` wrapped in a span; ``on_result(tracer, args, result)`` counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][3] if stack else -1
            index = -1
            if tracer.keep_spans:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [name, time.perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[2]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                if index >= 0:
                    tracer.spans[index] = (name, frame[1], end, parent)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def count(self, fn, name):
        """``fn`` wrapped to bump counter ``name`` per call, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing --------------------------------------------------------

    def patch(self, owners, attr, wrapper_factory):
        """Wrap ``attr`` on every owner that binds it.

        Several owners cover a name that one module defines and another
        imports; one binding is enough.  If none binds it, the boundary is
        gone and its metrics would read a false 0, so the traced run stops.
        """
        bound = [owner for owner in owners if getattr(owner, attr, None) is not None]
        if not bound:
            names = ", ".join(getattr(o, "__name__", repr(o)) for o in owners)
            raise AttributeError(f"no layer boundary {attr!r} on {names}")
        for owner in bound:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper_factory(original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def install_layers(tracer, fm):
    """Wrap the public entry points of each layer; ``fm`` holds the modules."""
    heat, frog, colony, spatial, lattice, runio, cli = (
        fm.heat, fm.frog, fm.colony, fm.spatial, fm.lattice, fm.runio, fm.cli)

    def bump(counter, measure):
        def hook(t, args, result):
            t.counts[counter] += measure(args, result)
        return hook

    # heat: the two solver calls, and each banded Cholesky factorisation
    flow = heat.KilledHeatFlow
    tracer.patch([flow], "step", lambda f: tracer.wrap(f, "heat.step"))
    tracer.patch([flow], "peek", lambda f: tracer.wrap(f, "heat.peek"))
    tracer.patch([heat], "cholesky_banded",
                 lambda f: tracer.count(f, "heat.factorizations"))

    # frog: one span per barrier-process run; count its wake events
    events = bump("frog.events", lambda a, r: len(r.events))
    tracer.patch([frog], "simulate_space_driven",
                 lambda f: tracer.wrap(f, "frog.simulate", events))
    tracer.patch([frog, cli], "simulate_hazard_driven",
                 lambda f: tracer.wrap(f, "frog.simulate", events))

    tracer.patch([colony], "sample_wake_threshold",
                 lambda f: tracer.wrap(f, "colony.sample_wake_threshold"))

    points = bump("spatial.points", lambda a, r: len(r))
    tracer.patch([spatial], "sample_J",
                 lambda f: tracer.wrap(f, "spatial.sample_J", points))
    for name in ("ustar_from_J", "build_W_from_J"):
        tracer.patch([spatial], name,
                     lambda f, n=name: tracer.wrap(f, f"spatial.{n}"))

    jumps = bump("lattice.jumps", lambda a, r: len(r.events))
    tracer.patch([lattice], "simulate_mps",
                 lambda f: tracer.wrap(f, "lattice.simulate_mps", jumps))
    tracer.patch([lattice], "expm", lambda f: tracer.count(f, "lattice.expm_calls"))

    tracer.patch([runio, cli], "config_from_dict",
                 lambda f: tracer.wrap(f, "runio.config"))

    def written(t, args, result):
        t.counts["runio.bytes_written"] += os.path.getsize(args[0])

    for name in ("write_json", "write_jsonl", "write_csv"):
        tracer.patch([runio, cli], name,
                     lambda f: tracer.wrap(f, "runio.write", written))

    tracer.patch([cli], "main", lambda f: tracer.wrap(f, "cli.main"))

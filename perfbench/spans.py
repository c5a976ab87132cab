"""In-memory spans around the calls the program makes into its own layers.

Used only by the traced run.  `Tracer.patch` replaces a public name on a
kgroups module with a wrapper that records one span per call; `restore`
puts every original back.  The timed runs never install a wrapper.
"""

from __future__ import annotations

import json
import statistics
import time
from functools import wraps

# kgroups module attribute -> span name.  The solver, harness and CLI call
# these through their own module globals, so patching the name on the
# calling module catches every call the program makes.
PATCHES = (
    ("kgroups.solver", "DistanceCache", "energy.DistanceCache"),
    ("kgroups.solver", "disco", "energy.disco"),
    ("kgroups.solver", "ClusterSumLedger", "partition.ClusterSumLedger"),
    ("kgroups.solver", "move_point", "partition.move_point"),
    ("kgroups.solver", "min_distance_pairs", "solver.min_distance_pairs"),
    ("kgroups.solver", "fit", "solver.fit"),
    ("kgroups.harness", "fit", "solver.fit"),
    ("kgroups.harness", "generate", "datagen.generate"),
    ("kgroups.datagen", "generate", "datagen.generate"),
    ("kgroups.harness", "index_report", "indices.index_report"),
    ("kgroups.indices", "index_report", "indices.index_report"),
    ("kgroups.dermatology", "load_dermatology", "dermatology.load_dermatology"),
    ("kgroups.cli", "run_experiment", "harness.run_experiment"),
    ("kgroups.cli", "emit_outputs", "harness.emit_outputs"),
)


class Tracer:
    """Records (id, name, parent id, start, end) for every wrapped call."""

    def __init__(self):
        self.spans = []  # [id, name, parent, start, end]
        self._stack = []
        self._restore = []

    def call(self, name, fn, *args, **kwargs):
        span = [len(self.spans), name, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        span[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def patch(self, module, attr, name):
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original))
        self._restore.append((module, attr, original))

    def patch_classmethod(self, cls, attr, name):
        descriptor = cls.__dict__[attr]
        setattr(cls, attr, staticmethod(self.wrap(name, getattr(cls, attr))))
        self._restore.append((cls, attr, descriptor))

    def install(self):
        import importlib

        from kgroups.indices import ContingencyTable

        for module_name, attr, name in PATCHES:
            self.patch(importlib.import_module(module_name), attr, name)
        self.patch_classmethod(ContingencyTable, "from_labels", "indices.contingency")

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def since(self, first_id):
        """A view holding only the spans recorded from span `first_id` on."""
        view = Tracer()
        view.spans = self.spans[first_id:]
        return view

    def durations(self, name):
        return [s[4] - s[3] for s in self.spans if s[1] == name]

    def children(self):
        kids = {}
        for s in self.spans:
            if s[2] is not None:
                kids.setdefault(s[2], []).append(s)
        return kids

    def self_times(self, name, child_names):
        """Each `name` span with the time its direct children named in
        `child_names` cover.  Children of one span run one after another, so
        their durations add up."""
        kids = self.children()
        out = []
        for s in self.spans:
            if s[1] != name:
                continue
            covered = sum(c[4] - c[3] for c in kids.get(s[0], ()) if c[1] in child_names)
            out.append((s, covered))
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(
                    json.dumps({"id": sid, "name": name, "parent": parent, "start": start, "end": end})
                    + "\n"
                )


def median_or_zero(values):
    return statistics.median(values) if values else 0.0

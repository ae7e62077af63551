"""Span tracer for the benchmark's traced run.

`installed(tracer)` wraps the public functions of every nilcurv module
named in LAYERS at each of its binding sites: every module attribute or
module-level dict value that holds the same function object (so `rref`
is traced whether `rational`, `algebra` or `verify` calls it, and
`verify.CHECKS` dispatches to traced checks), and methods on their class
(so `NilpotentAlgebra.bracket` and `Metric.__init__` are traced in every
caller). Nothing under `src/` changes; the originals are put back on
exit.

Self time is computed online: a call's self time is its duration minus
the durations of its direct child calls. The library is single-threaded,
so child intervals never overlap and self times partition the wall time
of a top-level operation exactly.

Calls of the HOT leaf functions (hundreds per operation) are not kept as
one span each: their calls, total and self time are summed per parent
span. All other calls are kept as spans in memory and written out by
`dump` when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# module -> public functions wrapped in the traced run, as the metric names
# `<module>.<function>.calls` and `<module>.<function>.self_s`
LAYERS = {
    "rational": ["rref", "rank", "nullspace", "solve"],
    "algebra": ["NilpotentAlgebra.bracket", "NilpotentAlgebra.center",
                "NilpotentAlgebra.derived_algebra",
                "NilpotentAlgebra.find_codim1_abelian_ideal"],
    "catalog": ["build"],
    "io": ["load_algebra"],
    "curvature": ["Metric.__init__", "frame_structure", "ricci_operator",
                  "ricci_form_matrix", "sectional_K"],
    "deformation": ["deformed_ricci", "deformed_ricci_frame",
                    "scaled_ricci_limit", "convergence_check"],
    "frames": ["normal_form_frame"],
    "sign_sets": ["classify_plane", "classify_ric_vector",
                  "adapted_metric_family", "secdef_coefficients",
                  "find_negative_K_witness", "find_positive_ric_witness",
                  "find_negative_ric_witness"],
    "classification": ["check_rk5", "check_rk7", "lemma6_classify",
                       "lemma7_classify", "max_dimL_exact",
                       "theorem2_expected_M"],
    "verify": ["check_heisenberg_spectrum", "check_filiform4_spectrum",
               "check_deformation_limit", "check_extremal_convergence",
               "check_ric_witnesses", "check_sectional_planes",
               "check_closure_dichotomy", "check_coverage"],
    "cli": ["main"],
}

HOT = frozenset({
    "rational.rref", "rational.rank", "rational.nullspace", "rational.solve",
    "algebra.NilpotentAlgebra.bracket", "algebra.NilpotentAlgebra.center",
    "algebra.NilpotentAlgebra.derived_algebra", "catalog.build",
    "curvature.Metric.__init__", "curvature.frame_structure",
    "curvature.ricci_operator", "curvature.ricci_form_matrix",
    "curvature.sectional_K", "deformation.deformed_ricci",
    "deformation.deformed_ricci_frame",
})

# witness searches: a call that raises counts in `<name>.failed`
SEARCHES = ("sign_sets.find_negative_K_witness",
            "sign_sets.find_positive_ric_witness",
            "sign_sets.find_negative_ric_witness")
K_SEARCH = "sign_sets.find_negative_K_witness"


def traced_names() -> list[str]:
    return [f"{mod}.{qual}" for mod, quals in LAYERS.items() for qual in quals]


class Tracer:
    """Spans and per-function totals of the calls made while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.paused = False
        # [span_id, parent_id, root_id, name, start, end, self_s]
        self.spans: list[list] = []
        # (parent_span_id, name) -> [calls, total_s, self_s]
        self.buckets: dict[tuple, list] = {}
        # name -> [calls, self_s, failed]
        self.totals: dict[str, list] = {}
        self.deformed_witnesses = 0
        # open calls: [name, start, child_s, span_id, anchor_id, root_id]
        self._stack: list[list] = []
        self._next_id = 1

    def enter(self, name: str, hot: bool = False) -> list:
        parent = self._stack[-1] if self._stack else None
        if hot:
            span_id = None
            anchor = parent[4] if parent else 0
        else:
            span_id = anchor = self._next_id
            self._next_id += 1
        root = parent[5] if parent else anchor
        frame = [name, self.clock(), 0.0, span_id, anchor, root]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, failed: bool = False) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, child_s, span_id, anchor, root = frame
        duration = end - start
        self_s = duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0])
        total[0] += 1
        total[1] += self_s
        total[2] += failed
        parent_id = self._stack[-1][4] if self._stack else 0
        if span_id is None:
            bucket = self.buckets.setdefault((parent_id, name), [0, 0.0, 0.0])
            bucket[0] += 1
            bucket[1] += duration
            bucket[2] += self_s
        else:
            self.spans.append([span_id, parent_id, root, name, start, end,
                               self_s])

    @contextmanager
    def operation(self, label: str):
        """A top-level operation: every span inside it shares its id."""
        frame = self.enter(label)
        try:
            yield
        finally:
            self.exit(frame)

    @contextmanager
    def pause(self):
        """Run the benchmark's own checks untraced."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, name: str, fn):
        hot = name in HOT
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer.enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(frame, failed=True)
                raise
            tracer.exit(frame)
            if name == K_SEARCH and result.lambdas is not None:
                tracer.deformed_witnesses += 1
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and self time; failures and the deformation
        share of the witness searches."""
        out = {}
        for name in traced_names():
            calls, self_s, failed = self.totals.get(name, (0, 0.0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name in SEARCHES:
                out[f"{name}.failed"] = failed
        calls, _, failed = self.totals.get(K_SEARCH, (0, 0.0, 0))
        found = calls - failed
        out[f"{K_SEARCH}.deform_ratio"] = (
            self.deformed_witnesses / found if found else 0.0)
        return out

    def by_operation(self) -> dict[str, dict]:
        """Wall time of the top-level operations, grouped by label up to
        '@', and the self time of every span inside them by name. The
        operation's own name carries the benchmark's glue around the
        library calls."""
        root_of = {}
        out: dict[str, dict] = {}
        for span_id, parent, root, name, start, end, self_s in self.spans:
            root_of[span_id] = root
            if parent == 0:
                entry = out.setdefault(name.split("@")[0],
                                       {"wall_s": 0.0, "self_s": {}})
                entry["wall_s"] += end - start
        labels = {span[0]: span[3].split("@")[0] for span in self.spans
                  if span[1] == 0}
        items = [(span[2], span[3], span[6]) for span in self.spans]
        items += [(root_of.get(parent), name, bucket[2])
                  for (parent, name), bucket in self.buckets.items()]
        for root, name, self_s in items:
            if root in labels:
                by_name = out[labels[root]]["self_s"]
                by_name[name] = by_name.get(name, 0.0) + self_s
        return out

    def dump(self, path) -> None:
        """Write spans, then per-parent aggregates, as JSON lines."""
        with open(path, "w") as fh:
            for span_id, parent, root, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "root": root, "name": name,
                                     "start": start, "end": end,
                                     "self_s": self_s}) + "\n")
            for (parent, name), (calls, total_s, self_s) in \
                    self.buckets.items():
                fh.write(json.dumps({"parent": parent, "name": name,
                                     "calls": calls, "total_s": total_s,
                                     "self_s": self_s}) + "\n")


def _binding_sites(original, modules):
    """(setter, key) pairs for every module attribute or module-level dict
    value that is `original`."""
    sites = []
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                sites.append((functools.partial(setattr, mod), key))
            elif isinstance(value, dict):
                for dkey, dvalue in value.items():
                    if dvalue is original:
                        sites.append((value.__setitem__, dkey))
    return sites


@contextmanager
def installed(tracer: Tracer):
    """Wrap every LAYERS function for the duration of the block."""
    for mod in LAYERS:
        importlib.import_module(f"nilcurv.{mod}")
    modules = [m for key, m in list(sys.modules.items())
               if key == "nilcurv" or key.startswith("nilcurv.")]
    undo = []
    try:
        for mod_name, quals in LAYERS.items():
            mod = sys.modules[f"nilcurv.{mod_name}"]
            for qual in quals:
                name = f"{mod_name}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name)
                    original = owner.__dict__[attr]
                    sites = [(functools.partial(setattr, owner), attr)]
                else:
                    original = getattr(mod, attr)
                    sites = _binding_sites(original, modules)
                wrapped = tracer.wrap(name, original)
                for setter, key in sites:
                    setter(key, wrapped)
                    undo.append((setter, key, original))
        yield tracer
    finally:
        for setter, key, original in reversed(undo):
            setter(key, original)

"""Spans around the library's layer boundaries, and the per-layer metrics.

The traced run rebinds public functions of ``gradedlogic`` in the namespace
of the module that calls them (and in the benchmark's own ``api``
namespace), so every call through that name records a span: name, start,
end, parent span and operation id.  Spans are kept in flat arrays and
written out when the run ends.  A span's self time is its duration minus the
time its direct child spans cover.

Only calls made about once per unit of work are wrapped (per proof line,
grid point, world or sheet).  Recursive inner walkers such as ``eval_basic``
or ``_eval_classical`` are not, because the wrapper's cost would swamp
theirs.  ``satisfies_formula`` recurses through its own module name, so its
wrapper passes nested calls straight through without a span.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.op_id = -1
        self.sizes: dict = {}

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.sizes[name] = 0
        return self.ids[name]

    def wrap(self, fn, name, reentrant=False, size=None):
        """``fn`` recording a span named ``name`` per call.  With ``size``,
        ``size(*args)`` is added to ``self.sizes[name]`` after the span."""
        nid = self._id(name)
        stack, names, parents, ops = self.stack, self.name, self.parent, self.op
        starts, ends, sizes = self.start, self.end, self.sizes

        def traced(*args, **kwargs):
            if reentrant and stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
                if size is not None:
                    sizes[name] += size(*args)

        return traced

    @contextmanager
    def patched(self, targets):
        """Rebind ``(namespace, attribute, span name, options)`` targets for
        the duration of the block, restoring the originals afterwards."""
        saved = []
        try:
            for obj, attr, name, opts in targets:
                original = getattr(obj, attr)
                saved.append((obj, attr, original))
                setattr(obj, attr, self.wrap(original, name, **opts))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def totals(self):
        """Per span name: ``{"calls", "total_s", "self_s"}``."""
        n = len(self.start)
        child = [0.0] * n
        for j in range(n):
            p = self.parent[j]
            if p >= 0:
                child[p] += self.end[j] - self.start[j]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for j in range(n):
            entry = out[self.names[self.name[j]]]
            dur = self.end[j] - self.start[j]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[j]
        return out

    def write(self, stem):
        """Spans as ``<stem>.bin`` (five arrays, in the order listed in
        ``<stem>.json``) plus that JSON index."""
        fields = ("name", "parent", "op", "start", "end")
        with open(f"{stem}.bin", "wb") as handle:
            for field in fields:
                getattr(self, field).tofile(handle)
        index = {
            "count": len(self.start),
            "names": self.names,
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(index, handle, indent=1)


def targets(lib, api):
    """Where each layer is entered, named after the layer it belongs to."""
    q, k, s, sem, p = lib.questionnaire, lib.kernel, lib.syntax, lib.semantics, lib.prototypes
    text_len = lambda text, *_: len(text)
    return [
        (api, "cross_check", "questionnaire.cross_check", {}),
        (q, "build_score_derivation", "kernel.build", {}),
        (q, "check_proof", "kernel.check", {}),
        (q, "degree", "prototypes.degree", {}),
        (api, "proof_to_json_lines", "kernel.serialise", {}),
        (api, "parse_proof_script", "kernel.script_parse", {}),
        (api, "check_proof", "kernel.check", {}),
        (k, "match_tautology", "kernel.taut", {}),
        (k, "match_axiom", "kernel.axiom_match", {}),
        (k, "match_schema", "kernel.schema_match", {}),
        (k, "render", "syntax.render", {}),
        (k, "parse_formula", "syntax.parse", {"size": text_len}),
        (s, "parse_formula", "syntax.parse", {"size": text_len}),
        (api, "find_countermodel", "semantics.search", {}),
        (sem, "satisfies_theory", "semantics.satisfies", {"reentrant": True}),
        (sem, "satisfies_formula", "semantics.satisfies", {"reentrant": True}),
        (api, "check_theory_correct_canonical", "prototypes.check_canonical", {}),
        (api, "degree", "prototypes.degree", {}),
        (p, "degree", "prototypes.degree", {}),
    ]


def distinct_atoms(syn, f, seen):
    """The benchmark's own walk over an outer formula's atoms."""
    if isinstance(f, syn.Atom):
        seen.add(f)
    elif isinstance(f, syn.ONot):
        distinct_atoms(syn, f.operand, seen)
    else:
        distinct_atoms(syn, f.left, seen)
        distinct_atoms(syn, f.right, seen)
    return seen


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, facts):
    """The per-layer metrics from the spans and from ``facts`` the run
    gathered outside the spans (lines checked, points, hash timings...)."""
    t = tracer.totals()
    get = lambda name, key: t.get(name, {}).get(key, 0)
    parse_bytes = tracer.sizes.get("syntax.parse", 0)
    m = {
        "kernel.taut_calls": (get("kernel.taut", "calls"), "count"),
        "kernel.taut_s": (get("kernel.taut", "total_s"), "s"),
        "kernel.taut_atoms_max": (facts["taut_atoms_max"], "count"),
        "kernel.build_s": (get("kernel.build", "total_s"), "s"),
        "kernel.axiom_match_calls": (get("kernel.axiom_match", "calls"), "count"),
        "kernel.axiom_match_s": (get("kernel.axiom_match", "total_s"), "s"),
        "kernel.check_s": (get("kernel.check", "total_s"), "s"),
        "kernel.check_lines": (facts["check_lines"], "count"),
        "kernel.check_lines_per_s": (
            _rate(facts["check_lines"], get("kernel.check", "total_s")), "1/s"),
        "kernel.schema_match_calls": (get("kernel.schema_match", "calls"), "count"),
        "kernel.schema_match_s": (get("kernel.schema_match", "total_s"), "s"),
        "kernel.rejected": (facts["rejected"], "count"),
        "kernel.serialise_s": (get("kernel.serialise", "total_s"), "s"),
        "syntax.render_calls": (get("syntax.render", "calls"), "count"),
        "syntax.render_s": (get("syntax.render", "total_s"), "s"),
        "syntax.parse_s": (get("syntax.parse", "total_s"), "s"),
        "syntax.parse_kb_per_s": (
            _rate(parse_bytes / 1000, get("syntax.parse", "total_s")), "kB/s"),
        "kernel.script_parse_self_s": (get("kernel.script_parse", "self_s"), "s"),
        "syntax.hash_us_per_line": (
            _rate(facts["hash_s"] * 1e6, facts["hash_lines"]), "us"),
        "semantics.search_self_s": (get("semantics.search", "self_s"), "s"),
        "semantics.satisfies_s": (get("semantics.satisfies", "total_s"), "s"),
        "semantics.points": (facts["points"], "count"),
        "semantics.points_per_s": (
            _rate(facts["points"], get("semantics.search", "total_s")), "1/s"),
        "prototypes.check_canonical_s": (
            get("prototypes.check_canonical", "total_s"), "s"),
        "prototypes.degree_calls": (get("prototypes.degree", "calls"), "count"),
        "prototypes.degree_s": (get("prototypes.degree", "total_s"), "s"),
        "prototypes.degree_us_per_call": (
            _rate(get("prototypes.degree", "total_s") * 1e6,
                  get("prototypes.degree", "calls")), "us"),
        "questionnaire.cross_check_self_s": (
            get("questionnaire.cross_check", "self_s"), "s"),
        "trace.overhead_ratio": (facts["overhead_ratio"], "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}

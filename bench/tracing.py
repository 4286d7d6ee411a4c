"""Span recorder for the traced bench run.

``Tracer.install`` rebinds the public functions of the ``splittings`` modules
(and ``Report.to_json``) to wrappers that record one span per call: name,
start, end, parent span and op id. Because the package's modules call each
other through module globals and module attributes, nested calls such as
``validate_graph`` inside ``britton_reduce`` are captured too. ``restore``
puts the originals back. No source file is edited.

A span's self time is its duration minus the time covered by its child
spans. Counters (letters, items, pinches, ball vertices, rows, bytes) are
read at the same boundaries by small observers; the time an observer takes
is charged to no layer, so it shows up in ``bench.unattributed_ratio``.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

from splittings import cli_io, cylinders, gbs, orbifold, report, tree_arithmetic

# (module, attribute, span name); several attributes may share a span name
TRACED = (
    (gbs, "graph", "gbs.graph"),
    (gbs, "validate_graph", "gbs.validate_graph"),
    (gbs, "make_word", "gbs.make_word"),
    (gbs, "britton_reduce", "gbs.britton_reduce"),
    (gbs, "translation_length", "gbs.translation_length"),
    (gbs, "is_elliptic", "gbs.is_elliptic"),
    (gbs, "axis_gap", "gbs.axis_gap"),
    (gbs, "irreducibility_witness", "gbs.irreducibility_witness"),
    (gbs, "modular_homomorphism", "gbs.modular_homomorphism"),
    (gbs, "ball_displacement_oracle", "gbs.ball_displacement_oracle"),
    (gbs, "sample_words", "gbs.sample_words"),
    (gbs, "jsj_report", "gbs.jsj_report"),
    (gbs, "reduce", "gbs.reduce"),
    (gbs, "classify_elementary", "gbs.classify_elementary"),
    (gbs, "divisibility_criterion", "gbs.divisibility_criterion"),
    (tree_arithmetic, "master", "tree_arithmetic.master"),
    (tree_arithmetic, "collapse", "tree_arithmetic.collapse"),
    (tree_arithmetic, "length_in_collapse", "tree_arithmetic.length_in_collapse"),
    (tree_arithmetic, "verify_modularity", "tree_arithmetic.verify_modularity"),
    (tree_arithmetic, "squarefree_witnesses", "tree_arithmetic.squarefree_witnesses"),
    (orbifold, "validate", "orbifold.validate"),
    (orbifold, "enumerate_orbifolds", "orbifold.enumerate_orbifolds"),
    (orbifold, "euler_characteristic", "orbifold.classify"),
    (orbifold, "is_hyperbolic", "orbifold.classify"),
    (orbifold, "is_small", "orbifold.classify"),
    (orbifold, "has_finite_mcg", "orbifold.classify"),
    (orbifold, "boundary_components", "orbifold.boundary_components"),
    (cylinders, "validate_atlas", "cylinders.validate_atlas"),
    (cylinders, "cylinder_orbits", "cylinders.cylinder_orbits"),
    (cylinders, "tree_of_cylinders_quotient", "cylinders.tree_of_cylinders_quotient"),
    (cylinders, "collapse_non_A", "cylinders.collapse_non_A"),
    (cli_io, "parse", "cli_io.parse"),
    (cli_io, "serialize", "cli_io.serialize"),
    (cli_io, "export_dot", "cli_io.export_dot"),
    (cli_io, "run", "cli_io.run"),
    (report.Report, "to_json", "report.Report.to_json"),
)

SEARCHES = ("gbs.irreducibility_witness", "tree_arithmetic.squarefree_witnesses")

# span record fields
NAME, PARENT, OP, START, END, CHILD = range(6)


def _crossings(items) -> int:
    return sum(1 for x in items if type(x) is gbs.Cross)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counters: Counter = Counter()
        self.op_id = -1
        self.op_kind = ""
        self.op_times: list[tuple[int, str, float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in TRACED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, OBSERVERS.get(name)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name, fn, observe):
        spans, stack, active = self.spans, self.stack, self.active

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, self.op_id, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = perf_counter()
                active[name] -= 1
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]
            if observe is not None:
                observe(self, rec, args, kwargs, result)
                if parent >= 0:
                    spans[parent][CHILD] += perf_counter() - end
            return result

        return traced

    # -- ops -------------------------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_id, self.op_kind = op_id, kind

    def end_op(self, seconds: float) -> None:
        self.op_times.append((self.op_id, self.op_kind, seconds))
        self.op_id, self.op_kind = -1, ""

    # -- results ----------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec[NAME]] += rec[END] - rec[START] - rec[CHILD]
        return out

    def calls(self) -> Counter:
        return Counter(rec[NAME] for rec in self.spans)

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
        st = self.self_times()
        calls = self.calls()
        c = self.counters
        incl: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            incl[rec[NAME]] += rec[END] - rec[START]

        def ratio(a, b):
            return a / b if b else 0.0

        def us(seconds, n):
            return ratio(seconds * 1e6, n)

        op_s = sum(t for _, _, t in self.op_times)
        m: dict[str, tuple[float, str]] = {}
        m["gbs.validate_graph.calls"] = (calls["gbs.validate_graph"], "count")
        m["gbs.validate_graph.self_s"] = (st["gbs.validate_graph"], "s")
        m["gbs.make_word.self_s"] = (st["gbs.make_word"], "s")
        for V in (16, 32, 64):
            m[f"gbs.make_word.us_per_letter.V{V}"] = (
                us(c[f"make_word.s.V{V}"], c[f"make_word.letters.V{V}"]), "us",
            )
        m["gbs.make_word.items_per_letter"] = (
            ratio(c["make_word.items"], c["make_word.letters"]), "items/letter",
        )
        m["gbs.britton_reduce.calls"] = (calls["gbs.britton_reduce"], "count")
        m["gbs.britton_reduce.self_s"] = (st["gbs.britton_reduce"], "s")
        for kind in ("conjugate", "random"):
            m[f"gbs.britton_reduce.us_per_item.{kind}"] = (
                us(c[f"britton.self_s.{kind}"], c[f"britton.items.{kind}"]), "us",
            )
        m["gbs.britton_reduce.pinches"] = (c["britton.pinches"], "count")
        for name in ("gbs.translation_length", "gbs.axis_gap", "gbs.modular_homomorphism"):
            m[f"{name}.self_s"] = (st[name], "s")
        oracle = "gbs.ball_displacement_oracle"
        m[f"{oracle}.calls"] = (calls[oracle], "count")
        m[f"{oracle}.self_s"] = (st[oracle], "s")
        m[f"{oracle}.ball_vertices"] = (c["oracle.vertices"], "count")
        m[f"{oracle}.valid_ratio"] = (ratio(c["oracle.valid"], calls[oracle]), "ratio")
        irr = "gbs.irreducibility_witness"
        m[f"{irr}.self_s"] = (st[irr], "s")
        m[f"{irr}.words_tried"] = (c[f"{irr}.words_tried"], "count")
        m[f"{irr}.found_ratio"] = (ratio(c["irreducibility.found"], calls[irr]), "ratio")
        sqf = "tree_arithmetic.squarefree_witnesses"
        m[f"{sqf}.self_s"] = (st[sqf], "s")
        m[f"{sqf}.words_tried"] = (c[f"{sqf}.words_tried"], "count")
        for name in (
            "tree_arithmetic.length_in_collapse",
            "tree_arithmetic.verify_modularity",
            "gbs.sample_words",
            "gbs.jsj_report",
            "orbifold.enumerate_orbifolds",
        ):
            m[f"{name}.self_s"] = (st[name], "s")
        m["orbifold.enumerate_orbifolds.rows_per_s"] = (
            ratio(c["enumerate.rows"], incl["orbifold.enumerate_orbifolds"]), "1/s",
        )
        m["orbifold.validate.calls"] = (calls["orbifold.validate"], "count")
        m["orbifold.validate.self_s"] = (st["orbifold.validate"], "s")
        m["orbifold.classify.self_s"] = (st["orbifold.classify"], "s")
        m["cylinders.validate_atlas.calls"] = (calls["cylinders.validate_atlas"], "count")
        for name in (
            "cylinders.validate_atlas",
            "cylinders.tree_of_cylinders_quotient",
            "cylinders.collapse_non_A",
            "cli_io.parse",
        ):
            m[f"{name}.self_s"] = (st[name], "s")
        m["cli_io.parse.bytes_per_s"] = (ratio(c["parse.bytes"], incl["cli_io.parse"]), "B/s")
        for name in ("cli_io.serialize", "cli_io.export_dot", "cli_io.run", "report.Report.to_json"):
            m[f"{name}.self_s"] = (st[name], "s")
        m["cli_io.run.bytes_out"] = (c["run.bytes_out"], "B")
        m["bench.trace_overhead_ratio"] = (ratio(traced_s, untraced_s), "ratio")
        m["bench.unattributed_ratio"] = (1.0 - ratio(sum(st.values()), op_s), "ratio")
        return m

    def dump(self, path, raw_limit: int = 20000) -> None:
        """Spans aggregated per (name, parent name), plus the first raw spans."""
        agg: dict[tuple[str, str], list[float]] = {}
        for rec in self.spans:
            parent = self.spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else "op"
            row = agg.setdefault((rec[NAME], parent), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += rec[END] - rec[START]
            row[2] += rec[END] - rec[START] - rec[CHILD]
        t0 = self.spans[0][START] if self.spans else 0.0
        doc = {
            "aggregated": [
                {"name": n, "parent": p, "calls": r[0], "total_s": r[1], "self_s": r[2]}
                for (n, p), r in sorted(agg.items())
            ],
            "ops": [{"op": i, "kind": k, "seconds": s} for i, k, s in self.op_times],
            "raw_fields": ["id", "name", "parent", "op", "start_s", "end_s"],
            "raw": [
                [i, r[NAME], r[PARENT], r[OP], r[START] - t0, r[END] - t0]
                for i, r in enumerate(self.spans[:raw_limit])
            ],
            "raw_truncated": max(0, len(self.spans) - raw_limit),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- observers: counters read at the span boundary -----------------------------------

def _obs_make_word(t: Tracer, rec, args, kwargs, result) -> None:
    g, letters = args[0], args[1]
    n = len(letters)
    V = len(g.vertices)
    c = t.counters
    c["make_word.letters"] += n
    c["make_word.items"] += len(result.items)
    c[f"make_word.letters.V{V}"] += n
    c[f"make_word.s.V{V}"] += rec[END] - rec[START]
    for search in SEARCHES:
        if t.active[search]:
            c[f"{search}.words_tried"] += 1


def _obs_britton(t: Tracer, rec, args, kwargs, result) -> None:
    items = args[1].items
    c = t.counters
    c["britton.pinches"] += (_crossings(items) - len(result.crossing_sequence)) // 2
    c[f"britton.items.{t.op_kind}"] += len(items)
    c[f"britton.self_s.{t.op_kind}"] += rec[END] - rec[START] - rec[CHILD]


def _obs_oracle(t: Tracer, rec, args, kwargs, result) -> None:
    t.counters["oracle.vertices"] += result.vertices_used
    t.counters["oracle.valid"] += bool(result.valid)


def _obs_irreducibility(t: Tracer, rec, args, kwargs, result) -> None:
    t.counters["irreducibility.found"] += result is not None


def _obs_enumerate(t: Tracer, rec, args, kwargs, result) -> None:
    t.counters["enumerate.rows"] += len(result)


def _obs_parse(t: Tracer, rec, args, kwargs, result) -> None:
    t.counters["parse.bytes"] += len(args[0].encode("utf-8"))


def _obs_run(t: Tracer, rec, args, kwargs, result) -> None:
    out = kwargs.get("stdout")
    if out is not None:
        t.counters["run.bytes_out"] += len(out.getvalue().encode("utf-8"))


OBSERVERS = {
    "gbs.make_word": _obs_make_word,
    "gbs.britton_reduce": _obs_britton,
    "gbs.ball_displacement_oracle": _obs_oracle,
    "gbs.irreducibility_witness": _obs_irreducibility,
    "orbifold.enumerate_orbifolds": _obs_enumerate,
    "cli_io.parse": _obs_parse,
    "cli_io.run": _obs_run,
}

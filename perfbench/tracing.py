"""In-memory tracer that wraps mahler's module-level names from outside.

Nothing in the library is edited.  ``Tracer.install`` replaces each
traced function in every mahler module namespace that binds it (so a
call through ``from .numeration import phi`` is caught too) and the
``_add``/``_mul``/``_inv`` methods of the ring classes; ``uninstall``
puts the originals back.

Three kinds of record are kept:

* spans, one per job, per phase of a job, and per mid-level library call
  (builders, oracle, trim, products, ...); a span names its parent and
  carries the job id;
* for hot leaf calls (numeration, ring arithmetic, the WFA step), counts
  and cumulative time only;
* self time per layer: each timed call's duration minus the time of the
  timed calls nested in it.  Count-only wrappers (``fib``, ring
  arithmetic) are not timed, so their cost lands in their caller's layer.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

BUILDERS = ("build_automaton_q", "build_automaton_z", "build_automaton_dumas")

# (module, function, stat name, layer, recorded as a span)
TIMED = (
    ("numeration", "canonical", "numeration.canonical", "numeration", False),
    ("numeration", "phi", "numeration.phi", "numeration", False),
    ("numeration", "phi_preimage", "numeration.phi_preimage", "numeration", False),
    ("wfa", "_step_payload", "wfa.step", "wfa", False),
    ("wfa", "weight", "wfa.weight", "wfa", False),
    ("wfa", "sequence_prefix", "wfa.sequence_prefix", "wfa", True),
    ("wfa", "trim", "wfa.trim", "wfa", True),
    ("equations", "build_automaton_q", "builders", "builders", True),
    ("equations", "build_automaton_z", "builders", "builders", True),
    ("equations", "build_automaton_dumas", "builders", "builders", True),
    ("equations", "solve_series", "oracle.solve_series", "oracle", True),
    ("equations", "residual", "oracle.residual", "oracle", True),
    ("equations", "find_relation", "reverse.find_relation", "reverse", True),
    ("wfa", "cauchy_product", "algebra.cauchy_product", "algebra", True),
    ("wfa", "determinize", "algebra.determinize", "algebra", True),
    ("serialize", "automaton_to_json", "serialize.to_json", "serialize", True),
    ("serialize", "dfa_to_json", "serialize.to_json", "serialize", True),
    ("serialize", "automaton_from_json", "serialize.from_json", "serialize", True),
    ("serialize", "automaton_to_dot", "serialize.to_dot", "serialize", True),
    ("serialize", "dfa_to_dot", "serialize.to_dot", "serialize", True),
    ("equations", "parse_equation", "equations.parse", "serialize", True),
    ("cli", "main", "cli.main", "cli", True),
)
COUNTED = (("numeration", "fib", "numeration.fib"),)
RING_CLASSES = ("IntegerRing", "RationalRing", "ModRing", "PrimeField")
RING_METHODS = (("_add", "rings.add"), ("_mul", "rings.mul"), ("_inv", "rings.inv"))
LAYERS = ("numeration", "wfa", "builders", "oracle", "reverse", "algebra",
          "serialize", "cli", "bench")


class Tracer:
    """Collects spans, counters and per-layer self time for one run."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0])   # name -> [calls, seconds]
        self.counts = defaultdict(int)               # derived counters
        self.self_s = defaultdict(float)             # layer -> exclusive seconds
        self.spans = []          # [id, parent, job, name, start, end]
        self._open = []          # ids of open spans
        self._frames = []        # child time accumulated per open timed frame
        self._undo = []          # (namespace, attribute, original)
        self.job = None

    # -- spans opened by the benchmark's own code ------------------------

    def _span_start(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, parent, self.job, name, perf_counter(), None])
        self._open.append(sid)

    def _span_end(self):
        self.spans[self._open.pop()][5] = perf_counter()

    def parent_name(self):
        return self.spans[self._open[-1]][3] if self._open else None

    def phase(self, name):
        """Context manager for a job or a phase of a job (layer "bench")."""
        return _Phase(self, name)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn, name, layer, span, before=None, after=None):
        stat = self.stats[name]
        frames = self._frames
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if span:
                self._span_start(fn.__name__)
            frames.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = frames.pop()
                stat[0] += 1
                stat[1] += dt
                self_s[layer] += dt - child
                if frames:
                    frames[-1] += dt
                if span:
                    self._span_end()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        stat = self.stats[name]

        def wrapper(*args):
            stat[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        c = self.counts

        def step_before(args):
            A, vec, label = args
            c["wfa.step.nnz_in"] += len(vec)
            c["wfa.step.arrows"] += len(A._arrows.get(label, ()))

        def preimage_after(args, result):
            c["numeration.phi_preimage.hits"] += result is not None

        def trim_after(args, result):
            c["wfa.trim.states_in"] += args[0].n_states
            c["wfa.trim.states_out"] += result.n_states
            if self.parent_name() in BUILDERS:
                c["builders.states_explored"] += args[0].n_states
                c["builders.states_kept"] += result.n_states

        def builder_after(args, result):
            c["builders.transitions"] += len(result.transitions)

        def solve_after(args, result):
            c["oracle.coeffs"] += len(result)

        def residual_after(args, result):
            if self.parent_name() == "find_relation":
                c["reverse.candidates"] += 1

        def relation_after(args, result):
            c["reverse.found"] += result is not None

        def product_after(args, result):
            c["algebra.product_states"] += result.n_states

        def determinize_after(args, result):
            c["algebra.dfa_states"] += len(result.states)

        def bytes_out(args, result):
            c["serialize.bytes"] += len(result)

        def bytes_in(args):
            c["serialize.bytes"] += len(args[0])

        return {
            "_step_payload": (step_before, None),
            "phi_preimage": (None, preimage_after),
            "trim": (None, trim_after),
            **{b: (None, builder_after) for b in BUILDERS},
            "solve_series": (None, solve_after),
            "residual": (None, residual_after),
            "find_relation": (None, relation_after),
            "cauchy_product": (None, product_after),
            "determinize": (None, determinize_after),
            "automaton_to_json": (None, bytes_out),
            "dfa_to_json": (None, bytes_out),
            "automaton_from_json": (bytes_in, None),
        }

    def install(self, modules):
        """Wrap every traced name in the given {short name: module} map."""
        hooks = self._hooks()
        namespaces = list(modules.values())
        replace = {}
        for mod, attr, name, layer, span in TIMED:
            fn = getattr(modules[mod], attr)
            replace[id(fn)] = (fn, self._timed(fn, name, layer, span, *hooks.get(attr, (None, None))))
        for mod, attr, name in COUNTED:
            fn = getattr(modules[mod], attr)
            replace[id(fn)] = (fn, self._counted(fn, name))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((ns, key, value))
                    setattr(ns, key, hit[1])
        for cls_name in RING_CLASSES:
            cls = getattr(modules["rings"], cls_name)
            for attr, name in RING_METHODS:
                fn = cls.__dict__.get(attr)
                if fn is not None:
                    self._undo.append((cls, attr, fn))
                    setattr(cls, attr, self._counted(fn, name))

    def uninstall(self):
        for ns, key, value in reversed(self._undo):
            setattr(ns, key, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer metrics, as totals per traced pass of the job list."""
        s, c = self.stats, self.counts

        def calls(name):
            return s[name][0] / passes

        def secs(name):
            return s[name][1] / passes

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "numeration.canonical.calls": (calls("numeration.canonical"), "count"),
            "numeration.canonical.s": (secs("numeration.canonical"), "s"),
            "numeration.fib.calls": (calls("numeration.fib"), "count"),
            "numeration.phi.calls": (calls("numeration.phi"), "count"),
            "numeration.phi.s": (secs("numeration.phi"), "s"),
            "numeration.phi_preimage.calls": (calls("numeration.phi_preimage"), "count"),
            "numeration.phi_preimage.s": (secs("numeration.phi_preimage"), "s"),
            "numeration.phi_preimage.hit_ratio": (
                ratio(c["numeration.phi_preimage.hits"], s["numeration.phi_preimage"][0]),
                "ratio"),
            "rings.add.calls": (calls("rings.add"), "count"),
            "rings.mul.calls": (calls("rings.mul"), "count"),
            "rings.inv.calls": (calls("rings.inv"), "count"),
            "wfa.step.calls": (calls("wfa.step"), "count"),
            "wfa.step.s": (secs("wfa.step"), "s"),
            "wfa.step.nnz_in": (c["wfa.step.nnz_in"] / passes, "count"),
            "wfa.step.arrows": (c["wfa.step.arrows"] / passes, "count"),
            "wfa.sequence_prefix.s": (secs("wfa.sequence_prefix"), "s"),
            "wfa.weight.calls": (calls("wfa.weight"), "count"),
            "wfa.weight.s": (secs("wfa.weight"), "s"),
            "wfa.trim.s": (secs("wfa.trim"), "s"),
            "wfa.trim.keep_ratio": (
                ratio(c["wfa.trim.states_out"], c["wfa.trim.states_in"]), "ratio"),
            "builders.calls": (calls("builders"), "count"),
            "builders.s": (secs("builders"), "s"),
            "builders.states_explored": (c["builders.states_explored"] / passes, "count"),
            "builders.states_kept": (c["builders.states_kept"] / passes, "count"),
            "builders.transitions": (c["builders.transitions"] / passes, "count"),
            "oracle.solve_series.s": (secs("oracle.solve_series"), "s"),
            "oracle.residual.s": (secs("oracle.residual"), "s"),
            "oracle.coeffs": (c["oracle.coeffs"] / passes, "count"),
            "reverse.find_relation.s": (secs("reverse.find_relation"), "s"),
            "reverse.candidates": (c["reverse.candidates"] / passes, "count"),
            "reverse.found_ratio": (
                ratio(c["reverse.found"], s["reverse.find_relation"][0]), "ratio"),
            "algebra.cauchy_product.s": (secs("algebra.cauchy_product"), "s"),
            "algebra.product_states": (c["algebra.product_states"] / passes, "count"),
            "algebra.determinize.s": (secs("algebra.determinize"), "s"),
            "algebra.dfa_states": (c["algebra.dfa_states"] / passes, "count"),
            "serialize.to_json.s": (secs("serialize.to_json"), "s"),
            "serialize.from_json.s": (secs("serialize.from_json"), "s"),
            "serialize.bytes": (c["serialize.bytes"] / passes, "count"),
            "equations.parse.s": (secs("equations.parse"), "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.self_s[layer] / passes, "s")
        return m

    def dump(self, path, env):
        """Write spans, raw counters and self times as one JSON document."""
        doc = {
            "env": env,
            "stats": {k: {"calls": v[0], "s": v[1]} for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "spans": [dict(zip(("id", "parent", "job", "name", "start", "end"), sp))
                      for sp in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _Phase:
    """A benchmark-side span; its exclusive time counts as layer "bench"."""

    __slots__ = ("tracer", "name", "t0")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        tr._span_start(self.name)
        tr._frames.append(0.0)
        self.t0 = perf_counter()

    def __exit__(self, *exc):
        tr = self.tracer
        dt = perf_counter() - self.t0
        tr.self_s["bench"] += dt - tr._frames.pop()
        if tr._frames:
            tr._frames[-1] += dt
        tr._span_end()
        return False

"""Per-layer tracing of tau2 from outside the library.

The tracer replaces each listed public function with a wrapper wherever the
package binds it: the defining module, every ``tau2`` module that imported
it by name (``from .intlin import kernel_basis`` gives ``structure`` its own
reference), the property registries that store functions as values, and the
class for methods and classmethods.  ``uninstall`` puts every original back,
so untraced passes in the same process run the unmodified code.

Each wrapper records calls, total time and self time (its span minus the
spans of wrapped calls made inside it).  Spans are kept as a stack, so traced
passes must run on one thread.  ``Tau2Presentation.lam`` is only counted:
it is called millions of times and a timed span would swamp it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

SPANS = {
    "intlin": ("hnf", "snf", "rank", "kernel_basis", "LatticeBasis.from_vectors", "lattice_equal", "in_rational_span"),
    "structure": ("center", "centralizer", "is_c_small", "derived_report", "is_regular", "structure_report"),
    "core": ("multiply", "power", "commutator", "parse_presentation", "invariant_report"),
    "randmodel": ("exact_fraction", "montecarlo", "sample_tau2", "trial_rng", "abelianization"),
    "dioph": ("parse_equations", "encode_system", "box_solve", "check_solution", "ring_window_report"),
    "cli": ("main",),
}
REGISTRIES = {
    "TAU2_PROPERTIES": (
        "all_generators_csmall",
        "center_is_C",
        "all_commutators_nontrivial",
        "derived_rank_is_r",
        "regular",
        "scalarZ_certified",
        "csmall_conjunction",
    ),
    "POLYCYCLIC_PROPERTIES": ("abelianization_finite",),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.lam_calls = 0
        self.box_points = 0
        self.max_entry_bits = 0
        self.max_rows = 0
        self.max_cols = 0
        self._stack: list[float] = []  # child time accumulated by each open span
        self._restore: list = []

    def reset(self):
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0]
        self.lam_calls = self.box_points = 0
        self.max_entry_bits = self.max_rows = self.max_cols = 0

    # -- installing -------------------------------------------------------------

    def install(self):
        modules = [mod for name, mod in sys.modules.items() if name == "tau2" or name.startswith("tau2.")]
        for layer, names in SPANS.items():
            mod = importlib.import_module(f"tau2.{layer}")
            for qualname in names:
                probe = self._observe_call if layer == "intlin" else None
                if qualname == "box_solve":
                    probe = self._observe_box
                self._patch(modules, mod, qualname, lambda fn, n=f"{layer}.{qualname}", p=probe: self._span(n, fn, p))
        self._patch(modules, importlib.import_module("tau2.core"), "Tau2Presentation.lam", self._counter)
        randmodel = importlib.import_module("tau2.randmodel")
        for registry_name, props in REGISTRIES.items():
            registry = getattr(randmodel, registry_name)
            saved = dict(registry)
            self._restore.append(lambda r=registry, s=saved: (r.clear(), r.update(s)))
            for prop in props:
                registry[prop] = self._span(f"randmodel.property.{prop}", registry[prop], None)

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    def _patch(self, modules, mod, qualname, make):
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(make(raw.__func__)))
            else:
                setattr(cls, attr, make(raw))
            self._restore.append(lambda: setattr(cls, attr, raw))
            return
        orig = getattr(mod, qualname)
        wrapper = make(orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)
                    self._restore.append(lambda m=m, key=key: setattr(m, key, orig))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in value.items():
                        if v is orig:
                            value[k] = wrapper
                            self._restore.append(lambda d=value, k=k: d.__setitem__(k, orig))

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn, probe):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - child
                if stack:
                    stack[-1] += span
            if probe is not None:
                # Gauge reading is tracer work: keep it out of every self time.
                probe_start = clock()
                probe(args, result)
                if stack:
                    stack[-1] += clock() - probe_start
            return result

        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def lam(p, t, i, j):
            self.lam_calls += 1
            return fn(p, t, i, j)

        return lam

    # -- gauges -----------------------------------------------------------------

    def _observe_call(self, args, result):
        for obj in (*args, result):
            if not isinstance(obj, type):  # the class argument of a classmethod
                self._observe(obj)

    def _observe(self, obj):
        if hasattr(obj, "entries"):  # IntMatrix
            self._rows(obj.entries, obj.cols)
        elif hasattr(obj, "vectors"):  # LatticeBasis
            self._rows(obj.vectors, obj.ambient)
        elif hasattr(obj, "diagonal"):  # SmithDecomposition
            for m in (obj.s, obj.u, obj.v):
                self._observe(m)
        elif isinstance(obj, (tuple, list)) and obj:
            if all(isinstance(x, int) for x in obj):  # a vector
                self._rows((obj,), len(obj))
            elif all(isinstance(x, (tuple, list)) and all(isinstance(y, int) for y in x) for x in obj):
                self._rows(obj, len(obj[0]))  # rows of a matrix
            else:
                for x in obj:
                    self._observe(x)

    def _rows(self, rows, cols):
        self.max_rows = max(self.max_rows, len(rows))
        self.max_cols = max(self.max_cols, cols)
        for row in rows:
            for x in row:
                if x.bit_length() > self.max_entry_bits:
                    self.max_entry_bits = x.bit_length()

    def _observe_box(self, args, result):
        system, box = args[0], args[1]
        self.box_points += (2 * box + 1) ** len(system.variables)

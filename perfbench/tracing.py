"""Per-layer spans and counts, recorded by wrapping the program from outside.

Nothing under ``src/`` changes: a ``Tracer`` replaces each listed function
with a timing wrapper in every ``polydarboux`` module that bound it by name
(``from .linalg import inverse`` makes ``lagrangian.inverse`` a second
binding), wraps the listed methods on their classes and ``numpy.linalg.lstsq``
on its module, and puts everything back on ``uninstall``.

A span's self time is its duration minus the spans of wrapped callees, so
each layer's self times add up to the time spent inside ``cli.main``.
Generator functions are timed per yielded item.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "io", "linalg", "sparse", "exterior", "lagrangian", "darboux",
          "polyforms", "moser")

# Helpers called per coefficient or per index; a span on each would cost
# more than the work it measures.  Their time counts to the caller.
SKIP = {"frac", "vec", "mask_of", "indices_of", "sorted_sign", "merge_sign", "removal_sign",
        "poly_zero", "poly_const", "poly_var", "basis_covector", "zero_form"}

METHODS = {
    "linalg": ("Subspace.from_vectors",),
    "sparse": ("SparseEchelon.insert", "SparseSolver.__init__", "SparseSolver.add_generator",
               "SparseSolver.solve"),
    "moser": ("DeformationField.batch",),
}


def _entries_matrix(args, kwargs):
    m = args[0]
    return m.rows * m.cols


def _entries_rows(args, kwargs):
    return len(args[0]) * args[1]


def _entries_vectors(args, kwargs):
    vectors = args[1]
    # a generator argument cannot be measured without consuming it
    return len(vectors) * args[0] if hasattr(vectors, "__len__") else 0


# functions whose inputs enter an exact elimination, with their size
ELIMINATIONS = {
    "linalg.rref": _entries_matrix, "linalg.rank": _entries_matrix,
    "linalg.inverse": _entries_matrix, "linalg.determinant": _entries_matrix,
    "linalg.solve": _entries_matrix, "linalg.kernel_basis": _entries_rows,
    "linalg.Subspace.from_vectors": _entries_vectors,
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()          # derived counters: entries, terms, ...
        self.self_time: dict = dict.fromkeys(LAYERS, 0.0)
        self.inclusive: dict = defaultdict(float)
        self._stack: list = []                   # child time per open span
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _open(self):
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, layer, qualname, t0):
        dt = perf_counter() - t0
        child = self._stack.pop()
        self.self_time[layer] += dt - child
        self.inclusive[qualname] += dt
        if self._stack:
            self._stack[-1] += dt

    def _wrap(self, layer, qualname, fn):
        tracer = self
        observe = OBSERVERS.get(qualname)
        entries = ELIMINATIONS.get(qualname)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.calls[qualname] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        t0 = tracer._open()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(layer, qualname, t0)
                        tracer.counts[qualname + ".yields"] += 1
                        yield item
                finally:
                    gen.close()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[qualname] += 1
            if entries is not None:
                tracer.counts["linalg.input_entries"] += entries(args, kwargs)
            t0 = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(layer, qualname, t0)
            if observe is not None:
                observe(tracer.counts, result)
            return result
        return traced

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement):
        for name, mod in list(sys.modules.items()):
            if name != "polydarboux" and not name.startswith("polydarboux."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"polydarboux.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in SKIP):
                    self._rebind(fn, self._wrap(layer, f"{layer}.{attr}", fn))
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                qualname = f"{layer}.{dotted}"
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(layer, qualname, raw.__func__))
                else:
                    wrapped = self._wrap(layer, qualname, raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
        import numpy.linalg
        self._undo.append((numpy.linalg, "lstsq", numpy.linalg.lstsq))
        numpy.linalg.lstsq = self._wrap("moser", "moser.lstsq", numpy.linalg.lstsq)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def fired(self, qualname: str) -> bool:
        return self.calls[qualname] > 0

    def snapshot(self) -> dict:
        """Every count, for comparing two traced passes over the same ops."""
        return {**{f"{k}.calls": v for k, v in self.calls.items()}, **self.counts}

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics: counts per op, shares of the time inside cli.main."""
        total = self.inclusive["cli.main"] or float("nan")
        calls, counts = self.calls, self.counts

        def per_op(x):
            return x / ops

        def ratio(num, den):
            return num / den if den else 0.0

        searches = calls["lagrangian.search_polylagrangian"] + calls["lagrangian.detect_multilagrangian"]
        out = {f"{layer}.self_share": self.self_time[layer] / total for layer in LAYERS}
        out.update({
            "linalg.calls": per_op(sum(v for k, v in calls.items() if k.startswith("linalg."))),
            "linalg.inverse.calls": per_op(calls["linalg.inverse"]),
            "linalg.kernel_basis.calls": per_op(calls["linalg.kernel_basis"]),
            "linalg.subspace_builds": per_op(calls["linalg.Subspace.from_vectors"]),
            "linalg.input_entries": per_op(counts["linalg.input_entries"]),
            "sparse.solver_builds": per_op(calls["sparse.SparseSolver.__init__"]),
            "sparse.solves": per_op(calls["sparse.SparseSolver.solve"]),
            "sparse.echelon_inserts": per_op(calls["sparse.SparseEchelon.insert"]),
            "exterior.wedge_power.calls": per_op(calls["exterior.wedge_power_by_exponent"]),
            "exterior.wedge.out_terms": per_op(counts["exterior.wedge.out_terms"]),
            "exterior.pullback.calls": per_op(calls["exterior.pullback"]),
            "lagrangian.kernel_of_form.calls": per_op(calls["lagrangian.kernel_of_form"]),
            "lagrangian.rank_samples": per_op(calls["lagrangian.rank_2form"]),
            "lagrangian.search.found_ratio": ratio(counts["lagrangian.search.found"], searches),
            "lagrangian.greedy.yield_ratio": ratio(
                counts["lagrangian.scalar_polylagrangian_candidates.yields"],
                calls["lagrangian.greedy_maximal_isotropic"]),
            "darboux.conjugate_share": self.inclusive["darboux.seeded_conjugate"] / total,
            "polyforms.exterior_d.calls": per_op(calls["polyforms.exterior_d"]),
            "polyforms.homotopy.out_terms": per_op(counts["polyforms.homotopy.out_terms"]),
            "moser.field_evals": per_op(calls["moser.DeformationField.batch"]),
            "moser.lstsq.calls": per_op(calls["moser.lstsq"]),
        })
        return out


def _count_wedge_terms(counts, result):
    counts["exterior.wedge.out_terms"] += len(result.coeffs)


def _count_found(counts, result):
    if result.status == "found":
        counts["lagrangian.search.found"] += 1


def _count_primitive_terms(counts, result):
    counts["polyforms.homotopy.out_terms"] += sum(len(p.terms) for p in result.coeffs.values())


OBSERVERS = {
    "exterior.wedge": _count_wedge_terms,
    "lagrangian.search_polylagrangian": _count_found,
    "lagrangian.detect_multilagrangian": _count_found,
    "polyforms.homotopy_primitive": _count_primitive_terms,
}

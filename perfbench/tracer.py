"""Outside-in tracing of algcert's layers.

``Tracer`` wraps the public functions each layer exposes, at every name in
the algcert modules that refers to them, so callers that looked the name up
at import time reach the wrapper too.  Each wrapper records a span; a span's
self time is its duration minus the time of wrapped callees and of the
tracer's own bookkeeping.  ``restore`` puts every original object back.  A listed name that algcert no
longer defines is skipped and reported in ``missing``; its metrics read 0.
"""

from __future__ import annotations

import importlib
import pkgutil
from time import perf_counter

# metric prefix -> (defining module, function names)
LAYERS = {
    "linalg.rref": ("algcert.linalg", ["rref_rows"]),
    "algebra.lie_series": ("algcert.algebra", ["lie_series"]),
    "algebra.radical": ("algcert.algebra",
                        ["jacobson_radical", "nilpotent_scan_radical"]),
    "algebra.derivations": ("algcert.algebra", ["derivation_algebra", "der_into"]),
    "algebra.center": ("algcert.algebra", ["center"]),
    "certify.structure": ("algcert.certify",
                          ["quotient_structure", "semisimple_block_sizes",
                           "torus_shape_check", "reductive_shape"]),
    "presentation": ("algcert.presentation",
                     ["presentation_from_ideal", "presentation_from_algebra",
                      "quotient_algebra", "normal_form", "is_monomial_ideal",
                      "is_graded_presentation", "minimal_degree_subspace"]),
    "forms.nonsingularity": ("algcert.forms", ["nonsingularity"]),
    "forms.isotropy": ("algcert.forms", ["isotropy"]),
    "forms.lie": ("algcert.forms",
                  ["im_phi_lie", "sim_lie", "stab_lie", "restricted_action"]),
    "forms.flag_search": ("algcert.forms", ["flag_search"]),
    "certify": ("algcert.certify", ["certify", "verify_invariant_pair"]),
    "cli": ("algcert.cli", ["main"]),
}

# Layers whose calls return evidence with a verdict (forms.decisive_ratio).
VERDICT_LAYERS = ("forms.nonsingularity", "forms.isotropy")


class Span:
    __slots__ = ("s", "calls", "rows", "cells", "nnz", "rank", "decisive")

    def __init__(self):
        self.s = 0.0
        self.calls = self.rows = self.cells = self.nnz = self.rank = 0
        self.decisive = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Span] = {}
        self.multiply_calls = 0
        self.missing: list[str] = []      # listed names algcert does not define
        self._stack: list[list] = []      # per open span: [time of wrapped callees]
        self._saved: list[tuple] = []     # (owner, name, original)

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        algcert = importlib.import_module("algcert")
        modules = [algcert] + [importlib.import_module(f"algcert.{info.name}")
                               for info in pkgutil.iter_modules(algcert.__path__)]
        for prefix, (home, names) in LAYERS.items():
            home_mod = importlib.import_module(home)
            for name in names:
                original = getattr(home_mod, name, None)
                if original is None:
                    self.missing.append(f"{home}.{name}")
                    continue
                wrapper = self._wrap(prefix, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, wrapper)
        cls = importlib.import_module("algcert.algebra").StructureAlgebra
        multiply = cls.multiply

        def counted_multiply(alg, x, y):
            self.multiply_calls += 1
            return multiply(alg, x, y)

        self._replace(cls, "multiply", counted_multiply)

    def _replace(self, owner, name, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- spans --------------------------------------------------------------

    def _wrap(self, prefix: str, fn):
        stack = self._stack
        stats = self.stats
        rref = prefix == "linalg.rref"
        verdicts = prefix in VERDICT_LAYERS

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            if rref:
                rows, ncols, field = args
                if not isinstance(rows, list):
                    rows = list(rows)
                args = (rows, ncols, field)
            frame = [0.0]
            stack.append(frame)
            result = None
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t2 = perf_counter()
                stack.pop()
                key = prefix
                if rref:
                    key = "linalg.rref_gfp" if field.characteristic else "linalg.rref_q"
                span = stats.get(key)
                if span is None:
                    span = stats[key] = Span()
                span.s += (t2 - t1) - frame[0]
                span.calls += 1
                if result is not None and rref:
                    span.rows += len(rows)
                    span.cells += len(rows) * ncols
                    span.nnz += sum(1 for row in rows for x in row if x)
                    span.rank += len(result[1])
                elif result is not None and verdicts:
                    verdict = result.verdict
                    span.decisive += "CERTIFIED" in verdict or "WITNESS" in verdict
                if stack:
                    stack[-1][0] += perf_counter() - t0

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        return wrapper

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values, named as in BENCHMARK.json."""
        get = lambda key: self.stats.get(key, Span())   # noqa: E731
        out = {}
        for field in ("q", "gfp"):
            span = get(f"linalg.rref_{field}")
            base = f"linalg.rref_{field}"
            out[f"{base}.s"] = span.s
            out[f"{base}.calls"] = span.calls
            out[f"{base}.rows"] = span.rows
            out[f"{base}.cells"] = span.cells
            out[f"{base}.nnz"] = span.nnz
            out[f"{base}.rank_ratio"] = span.rank / span.rows if span.rows else 0.0
        for key in ("algebra.lie_series", "algebra.radical", "algebra.derivations",
                    "algebra.center", "presentation"):
            out[f"{key}.s"] = get(key).s
            out[f"{key}.calls"] = get(key).calls
        out["algebra.multiply.calls"] = self.multiply_calls
        for key in ("certify.structure", "forms.nonsingularity", "forms.isotropy",
                    "forms.lie", "forms.flag_search", "certify", "cli"):
            out[f"{key}.s"] = get(key).s
        checks = [get(key) for key in VERDICT_LAYERS]
        calls = sum(span.calls for span in checks)
        out["forms.decisive_ratio"] = (sum(span.decisive for span in checks) / calls
                                       if calls else 0.0)
        return out

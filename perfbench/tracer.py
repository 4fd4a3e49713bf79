"""Per-layer tracing by wrapping the engine's public calls in this process.

`Tracer.install` wraps every public module-level function of each
curvedchern module, the arithmetic methods listed in METHODS, and counts
Scalar arithmetic.  A wrapped function is rebound in every module
namespace that holds it, so names imported with `from ... import` are
traced too.  Spans are aggregated in memory per name: calls, total time
of outermost calls, and self time (span time minus the time of the spans
it encloses).  `remove` restores the original objects.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# class -> methods timed as spans, named "<module>.<Class>.<method>"
METHODS = {
    ("rings", "RingElement"): (
        "__mul__", "__add__", "__sub__", "__neg__", "scale", "__pow__", "derivative",
    ),
    ("forms", "DiffForm"): ("wedge", "__add__", "scale_ring"),
    ("forms", "USeries"): ("__mul__", "__add__"),
    ("matform", "Mat"): (
        "__matmul__", "__add__", "__sub__", "scale_ring", "supertrace",
        "parity_components", "row_sign_d", "apply",
    ),
}
# a sort key called once per monomial comparison: a span would cost more
# than the work it measures
UNTRACED = {"rings.monomial_key"}
# Scalar arithmetic runs millions of times a run: counted, not timed
SCALAR_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "inv")

# operand term-count buckets for the RingElement.__mul__ histogram
SIZE_BUCKETS = (1, 4, 16, 64, 256, 1024)


def size_bucket(n: int) -> str:
    for top in SIZE_BUCKETS:
        if n <= top:
            return f"<={top}"
    return f">{SIZE_BUCKETS[-1]}"


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, child_s, depth]
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.mul_sizes: Counter = Counter()
        self.max_mul_terms = 0
        # factor the readout applies to span times, e.g. to turn them into
        # reference-speed seconds
        self.scale = 1.0
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------

    def _timed(self, name: str, fn, probe=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        open_ = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_.append(0.0)
            stat[3] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[3] -= 1
                stat[0] += 1
                stat[2] += open_.pop()
                if stat[3] == 0:
                    stat[1] += dt
                if open_:
                    open_[-1] += dt
            if probe is not None:
                probe(args, out)
            return out

        return span

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    # -- probes: counts taken where the work happens -------------------

    def _probe_mul(self, args, out):
        na, nb = len(args[0].terms), len(args[1].terms)
        self.counts["rings.mul.term_pairs"] += na * nb
        if args[0].ring.relation is not None:
            self.counts["rings.mul.quotient_calls"] += 1
        self.max_mul_terms = max(self.max_mul_terms, na, nb)
        self.mul_sizes[size_bucket(na)] += 1
        self.mul_sizes[size_bucket(nb)] += 1

    def _probe_supertrace(self, args, out):
        if out.is_zero():
            self.counts["matform.supertrace_of_product.zeros"] += 1

    def _probe_pushforward(self, args, out):
        self.counts["hochschild.pushed_chains"] += len(out.terms())

    def _probe_buchberger(self, args, out):
        self.counts["groebner.basis_size"] += len(out.elements)

    # -- install / remove ----------------------------------------------

    def install(self) -> None:
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("curvedchern.")
        }
        probes = {
            "rings.RingElement.__mul__": self._probe_mul,
            "matform.supertrace_of_product": self._probe_supertrace,
            "hochschild.pushforward": self._probe_pushforward,
            "groebner.buchberger": self._probe_buchberger,
        }
        wrapped = {}  # id(original) -> wrapper
        originals = {}
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                name = f"{short}.{attr}"
                if name in UNTRACED:
                    continue
                wrapped[id(fn)] = self._timed(name, fn, probes.get(name))
                originals[id(fn)] = fn
        # rebind in every namespace, including `from ... import` copies
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and originals[id(obj)] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                name = f"{short}.{cls_name}.{meth}"
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._timed(name, fn, probes.get(name)))
        scalar = modules["scalars"].Scalar
        for meth in SCALAR_OPS:
            fn = scalar.__dict__[meth]
            self._undo.append((scalar, meth, fn))
            setattr(scalar, meth, self._counted("scalars.ops", fn))

    def remove(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    # -- readout -------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0])[1] * self.scale

    def self_s(self, name: str) -> float:
        stat = self.spans.get(name)
        return 0.0 if stat is None else (stat[1] - stat[2]) * self.scale

    def table(self) -> dict:
        """Every span: calls, total and self seconds, busiest first."""
        rows = sorted(self.spans.items(), key=lambda kv: kv[1][1] - kv[1][2], reverse=True)
        return {
            name: {"calls": s[0], "total_s": s[1] * self.scale,
                   "self_s": (s[1] - s[2]) * self.scale}
            for name, s in rows
            if s[0]
        }

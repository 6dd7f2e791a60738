"""Outside-in tracing of axialcheck: spans and counts taken around the calls
into each layer's public functions, without changing the program.

Each listed function is rebound in every ``axialcheck`` module namespace that
holds it, because ``from .algebra import multiply`` gives ``axial`` its own
binding and patching ``algebra`` alone would miss those calls.  Methods are
rebound on their class.  Scalar operators of ``FieldElement`` and
``FieldDescriptor.__eq__`` are counted but not timed: they run millions of
times and a span each would swamp the numbers.

Spans are kept in memory, one tuple per call, and summarised at the end.  A
span's self time is its duration minus the durations of its direct child
spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# (module, qualified name) of every traced function, by layer.  Only layers
# that do work are listed: errors holds exception classes only.
TIMED = (
    ("fields", "parse_scalar"),
    ("fields", "specialize"),
    ("linalg", "rref"),
    ("linalg", "kernel"),
    ("linalg", "solve_in_span"),
    ("linalg", "invert"),
    ("linalg", "Subspace.from_vectors"),
    ("linalg", "Subspace.intersection"),
    ("linalg", "Subspace.reduce"),
    ("linalg", "Matrix.matmul"),
    ("linalg", "Matrix.apply"),
    ("algebra", "multiply"),
    ("algebra", "adjoint_matrix"),
    ("algebra", "is_homomorphism"),
    ("algebra", "generated_subalgebra"),
    ("algebra", "extend_from_generators"),
    ("algebra", "is_ideal"),
    ("algebra", "quotient"),
    ("axial", "split_eigenspace"),
    ("axial", "check_fusion"),
    ("axial", "miyamoto"),
    ("axial", "check_dihedral"),
    ("axial", "axial_dimension"),
    ("axial", "identity_suite"),
    ("catalog", "instantiate"),
    ("catalog", "verify_entry"),
    ("catalog", "check_claims"),
    ("algfile", "loads"),
    ("algfile", "parse_vector"),
    ("cli", "main"),
)

# counted only: metric name -> (module, class, attribute names sharing the count)
COUNTED = {
    "fields.add": ("fields", "FieldElement", ("__add__", "__radd__")),
    "fields.mul": ("fields", "FieldElement", ("__mul__", "__rmul__")),
    "fields.inverse": ("fields", "FieldElement", ("inverse",)),
    "fields.eq": ("fields", "FieldElement", ("__eq__",)),
    "fields.descriptor_eq": ("fields", "FieldDescriptor", ("__eq__",)),
}

# traced functions whose calls may be answered from a module-level cache:
# a call that returns without growing the cache is a hit
CACHED = {
    "catalog.instantiate": "_instantiate_cache",
    "catalog.verify_entry": "_verify_cache",
}


def span_name(module, qualname):
    return f"{module}.{qualname}"


class Tracer:
    """Installs the wrappers, records spans and counts, and restores the program.

    ``gauge`` (a hostspeed.Gauge, optional) may interrupt a span to time its
    reference loop; that time is taken out of the span.
    """

    def __init__(self, gauge=None):
        self.gauge = gauge
        self.names = [span_name(m, q) for m, q in TIMED]
        self.spans = []          # (function id, parent span or -1, seconds, op, nested)
        self.counts = {name: [0] for name in COUNTED}
        self.cache_hits = {name: 0 for name in CACHED}
        self.cache_hits_by_op = {}   # op -> hits of any cache
        self.rref_cells = 0
        self.op = 0              # identifier shared by the spans of one op
        self._stack = []
        self._depth = [0] * len(self.names)
        self._restore = []

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for owner, attr, value in reversed(self._restore):
                setattr(owner, attr, value)
            self._restore.clear()

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self):
        for module_name, _qualname in TIMED:
            importlib.import_module(f"axialcheck.{module_name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "axialcheck" or name.startswith("axialcheck.")]
        for fid, (module_name, qualname) in enumerate(TIMED):
            module = sys.modules[f"axialcheck.{module_name}"]
            if "." in qualname:
                class_name, attr = qualname.split(".")
                cls = getattr(module, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._rebind(cls, attr, classmethod(self._timed(raw.__func__, fid)))
                else:
                    self._rebind(cls, attr, self._timed(raw, fid))
                continue
            original = getattr(module, qualname)
            wrapper = self._timed(original, fid)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{module_name}.{qualname} is bound nowhere")
        for name, (module_name, class_name, attrs) in COUNTED.items():
            cls = getattr(sys.modules[f"axialcheck.{module_name}"], class_name)
            cell = self.counts[name]
            for attr in attrs:
                self._rebind(cls, attr, _counted(cls.__dict__[attr], cell))

    def _timed(self, fn, fid):
        spans, stack, depth = self.spans, self._stack, self._depth
        name = self.names[fid]
        cache_attr = CACHED.get(name)
        cache = None
        if cache_attr is not None:
            cache = getattr(sys.modules[f"axialcheck.{name.split('.')[0]}"], cache_attr)
        is_rref = name == "linalg.rref"
        perf_counter = time.perf_counter
        gauge = self.gauge if self.gauge is not None else _NoGauge

        def traced(*args, **kwargs):
            if is_rref:
                self.rref_cells += args[0].nrows * args[0].ncols
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            nested = depth[fid] > 0
            depth[fid] += 1
            size = len(cache) if cache is not None else 0
            spent = gauge.spent_s
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - t0 - (gauge.spent_s - spent)
                depth[fid] -= 1
                stack.pop()
                spans[idx] = (fid, parent, seconds, self.op, nested)
            if cache is not None and len(cache) == size:
                self.cache_hits[name] += 1
                self.cache_hits_by_op[self.op] = self.cache_hits_by_op.get(self.op, 0) + 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- summary -------------------------------------------------------------

    def summary(self, scale=1.0):
        """name -> {"count", "self_s", "total_s"} for every traced function,
        the times multiplied by ``scale``."""
        child = [0.0] * len(self.spans)
        for _fid, parent, seconds, _op, _nested in self.spans:
            if parent >= 0:
                child[parent] += seconds
        out = {name: {"count": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for idx, (fid, _parent, seconds, _op, nested) in enumerate(self.spans):
            row = out[self.names[fid]]
            row["count"] += 1
            row["self_s"] += (seconds - child[idx]) * scale
            if not nested:
                row["total_s"] += seconds * scale
        return out

    def count(self, name):
        return self.counts[name][0]


class _NoGauge:
    spent_s = 0.0


def _counted(fn, cell):
    def counted(*args):
        cell[0] += 1
        return fn(*args)

    counted.__wrapped__ = fn
    return counted

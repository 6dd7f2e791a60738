"""Names, units and directions of the benchmark's metrics, and the end-to-end
metric each per-layer metric should move.

BENCHMARK.json lists the same metrics; test_benchmark.py checks that the two
agree.  Every metric is printed on every workload.  A time is reported only
for functions that all three workloads call, so that no time metric reads 0 on
every run of a workload; the other functions get their call counts here, and
the traced run prints their times in its table.
"""

from __future__ import annotations

from spans import COUNTED, TIMED, span_name

END_TO_END = {
    # name: (unit, better, bound)
    "setup_s": ("s", "lower", 0.25),
    "pass_s": ("s", "lower", 0.2),
    "op_p50_s": ("s", "lower", 0.2),
    "op_p90_s": ("s", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# functions that every workload calls, so their times are never 0
TIMED_EVERYWHERE = (
    "fields.parse_scalar",
    "linalg.rref",
    "linalg.kernel",
    "linalg.invert",
    "linalg.Subspace.from_vectors",
    "linalg.Subspace.intersection",
    "linalg.Subspace.reduce",
    "linalg.Matrix.matmul",
    "linalg.Matrix.apply",
    "algebra.multiply",
    "algebra.adjoint_matrix",
    "algebra.is_homomorphism",
    "algebra.generated_subalgebra",
    "axial.split_eigenspace",
    "axial.check_fusion",
    "axial.miyamoto",
)

# the modules whose import time is measured: every layer that does work
IMPORTED = ("fields", "linalg", "algebra", "axial", "catalog", "algfile", "cli")

# per-layer metric: (unit, better, the end-to-end metric it should move)
PER_LAYER = {}
_FIELD_OPS = "pass_s on all workloads, most on matsuo over Q; op_p90_s on verify"
_KERNELS = "pass_s on matsuo; op_p90_s on verify"
_AXIAL = "op_p50_s, op_p90_s and pass_s on verify; pass_s on claims; no change on matsuo"
_MOVES = {
    "fields": _FIELD_OPS,
    "linalg": "pass_s on matsuo (the dimension-45 elimination); op_p90_s on verify",
    "algebra.multiply": _KERNELS,
    "algebra.adjoint_matrix": _KERNELS,
    "algebra.is_homomorphism": _KERNELS,
    "algebra.generated_subalgebra": _KERNELS,
    "algebra.extend_from_generators": "pass_s on claims",
    "algebra.is_ideal": "pass_s on claims",
    "algebra.quotient": "pass_s on claims",
    "axial": _AXIAL,
    "catalog": "pass_s and peak_rss_mb on claims",
    "algfile": "pass_s on matsuo; the file requests of verify",
    "cli": "op_p50_s on verify",
}


def moves(name):
    """The end-to-end metric a per-layer metric should move (longest prefix wins)."""
    key = max((k for k in _MOVES if name.startswith(k)), key=len)
    return _MOVES[key]


for _module, _qualname in TIMED:
    _name = span_name(_module, _qualname)
    PER_LAYER[f"{_name}.count"] = ("count", "lower", moves(_name))
    if _name in TIMED_EVERYWHERE:
        PER_LAYER[f"{_name}.self_s"] = ("s", "lower", moves(_name))
        PER_LAYER[f"{_name}.total_s"] = ("s", "lower", moves(_name))
for _name in COUNTED:
    PER_LAYER[f"{_name}.count"] = ("count", "lower", _FIELD_OPS)
PER_LAYER["linalg.rref.cells"] = ("count", "lower", moves("linalg"))
PER_LAYER["catalog.instantiate.hit_ratio"] = ("ratio", "higher", moves("catalog"))
PER_LAYER["axial.split_eigenspace.per_verify"] = ("count/verify", "lower", _AXIAL)
PER_LAYER["catalog.build_s"] = ("s", "lower", "setup_s")
for _module in IMPORTED:
    PER_LAYER[f"{_module}.import_s"] = ("s", "lower", "setup_s")
PER_LAYER["trace.untraced_pass_s"] = ("s", "lower", "pass_s")
PER_LAYER["trace.overhead_s"] = ("s", "lower", "none: the cost of tracing itself")

END_TO_END_UNITS = {name: spec[0] for name, spec in END_TO_END.items()}
PER_LAYER_UNITS = {name: spec[0] for name, spec in PER_LAYER.items()}


def per_layer_values(out, imports, verifies):
    """Per-layer metric values from a traced pass.

    ``out`` is the trace worker's report, ``imports`` the self import seconds
    by module, ``verifies`` the number of verifications in the pass.
    """
    functions = out["functions"]
    values = {}
    for name, row in functions.items():
        values[f"{name}.count"] = row["count"]
        if name in TIMED_EVERYWHERE:
            values[f"{name}.self_s"] = row["self_s"]
            values[f"{name}.total_s"] = row["total_s"]
    for name, count in out["counts"].items():
        values[f"{name}.count"] = count
    instantiated = functions["catalog.instantiate"]["count"]
    hits = out["cache_hits"]["catalog.instantiate"]
    values["linalg.rref.cells"] = out["rref_cells"]
    values["catalog.instantiate.hit_ratio"] = hits / instantiated if instantiated else 0.0
    splits = functions["axial.split_eigenspace"]["count"]
    values["axial.split_eigenspace.per_verify"] = splits / verifies if verifies else 0.0
    values["catalog.build_s"] = out["catalog_build_s"]
    for module in IMPORTED:
        values[f"{module}.import_s"] = imports[module]
    values["trace.untraced_pass_s"] = out["untraced_pass_s"]
    values["trace.overhead_s"] = out["traced_pass_s"] - out["untraced_pass_s"]
    return values

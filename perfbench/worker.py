"""The benchmark's side of each axialcheck process it starts.

    python3 perfbench/worker.py matsuo   # run the matsuo cases read from stdin
    python3 perfbench/worker.py trace    # one untraced and one traced pass of the ops read from stdin

Both commands read JSON on stdin and write one JSON document on stdout.
axialcheck is found through PYTHONPATH, which run.py points at the
checkout's src directory.
"""

from __future__ import annotations

import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def run_matsuo_case(case):
    """Load one generated algebra and put it through the matsuo calls."""
    from axialcheck import algfile
    from axialcheck.algebra import AlgebraMap, generated_subalgebra
    from axialcheck.axial import check_fusion, miyamoto, split_eigenspace
    from axialcheck.fields import parse_scalar
    from axialcheck.linalg import Matrix, Vector

    alg, _dd, _constraints = algfile.loads(case["text"])
    field = alg.field
    if list(alg.labels) != case["labels"]:
        return {"error": "basis order differs from the file"}
    eta = parse_scalar(case["eta"], field)
    columns = [Vector.unit(field, alg.dim, k) for k in case["flip"]]
    flip = AlgebraMap(alg, alg, Matrix.from_columns(field, columns, nrows=alg.dim))
    axis = alg.basis_vector(alg.label_index(case["axis"]))
    dec = split_eigenspace(alg, axis, eta, flip)
    violations = check_fusion(alg, dec)
    tau = miyamoto(alg, dec)
    gens = [alg.basis_vector(alg.label_index(lab)) for lab in case["generators"]]
    span = generated_subalgebra(alg, gens)
    return {
        "dim": alg.dim,
        "dims": list(dec.dims()),
        "violations": len(violations),
        "miyamoto_is_flip": tau == flip,
        "generated_dim": span.dim,
    }


def _guarded_case(case):
    try:
        return run_matsuo_case(case)
    except Exception:  # a crash is a failed op, reported with its traceback
        return {"error": traceback.format_exc()}


def cmd_matsuo(cases):
    from hostspeed import Gauge

    results = []
    for case in cases:
        with Gauge() as gauge:
            result, seconds = gauge.timed(_guarded_case, case)
        result.update(seconds=seconds, gauges=gauge.gauges, speed=gauge.speed)
        results.append(result)
    return {"results": results}


def run_cli(argv):
    """In-process equivalent of one axialcheck process: exit code and output."""
    from axialcheck import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception:  # a crash is a failed op, reported with its traceback
            traceback.print_exc()
            code = -1
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_op(op):
    if op["kind"] == "matsuo":
        return _guarded_case(op["case"])
    return run_cli(op["argv"])


def _pass(ops, tracer=None):
    """Run every op once, each from empty catalog caches, as a fresh process would."""
    from axialcheck import catalog

    results = []
    for index, op in enumerate(ops):
        catalog.clear_caches()
        if tracer is not None:
            tracer.op = index
        results.append(_run_op(op))
    return results


def cmd_trace(spec):
    """An untraced and a traced pass, each under a host-speed gauge.

    The pass times and every span are in normalized seconds (hostspeed.py);
    the tracer takes the gauges' own time out of the spans they interrupt.
    """
    import axialcheck
    from hostspeed import Gauge, normalized
    from spans import Tracer

    start = time.perf_counter()
    axialcheck.list_entries()
    build_s = time.perf_counter() - start
    ops = spec["ops"]
    with Gauge() as gauge:
        _results, untraced_s = gauge.timed(_pass, ops)
    untraced_s = normalized(untraced_s, gauge.gauges, gauge.speed)
    with Gauge() as gauge:
        tracer = Tracer(gauge)
        with tracer.installed():
            results, traced_s = gauge.timed(_pass, ops, tracer)
    scale = normalized(1.0, gauge.gauges, gauge.speed)
    return {
        "catalog_build_s": build_s,
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s * scale,
        "results": results,
        "functions": tracer.summary(scale),
        "counts": {name: tracer.count(name) for name in tracer.counts},
        "cache_hits": tracer.cache_hits,
        "cache_hits_by_op": tracer.cache_hits_by_op,
        "rref_cells": tracer.rref_cells,
        "spans": len(tracer.spans),
    }


def main(argv):
    command = argv[1] if len(argv) > 1 else ""
    if command == "matsuo":
        payload = cmd_matsuo(json.load(sys.stdin))
    elif command == "trace":
        payload = cmd_trace(json.load(sys.stdin))
    else:
        print(f"usage: worker.py matsuo|trace, not {command!r}", file=sys.stderr)
        return 2
    json.dump(payload, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

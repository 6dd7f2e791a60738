"""The benchmark's own consistency: BENCHMARK.json, the verdict table, and
the outside-in wrapping.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import expected  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_metrics_the_run_prints():
    doc = _benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: spec[:2] for name, spec in metrics.PER_LAYER.items()
    }
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_per_layer_metric_names_what_it_should_move():
    for name, (_unit, _better, moves) in metrics.PER_LAYER.items():
        assert moves, name


def test_verdict_table():
    names = [req.name for req in expected.VERIFY_REQUESTS]
    assert len(names) == len(set(names)) == 17
    assert all(req.source for req in expected.VERIFY_REQUESTS)
    rejected = [req for req in expected.VERIFY_REQUESTS if req.exit_code == 2]
    assert all(not req.failing for req in rejected)
    assert all(bool(req.failing) == (req.exit_code == 1) for req in expected.VERIFY_REQUESTS)
    assert len(set(expected.CLAIMS)) == len(expected.CLAIMS) == 26


def test_verify_mismatch_reports_a_wrong_verdict():
    seven = next(r for r in expected.VERIFY_REQUESTS if r.name == "Seven")

    def result(code, statuses, stderr=""):
        checks = [{"name": n, "status": st, "detail": ""} for n, st in statuses]
        return {"exit": code, "stdout": json.dumps({"canonical": {"checks": checks}}),
                "stderr": stderr}

    assert expected.verify_mismatch(seven, result(0, [("fusion", "pass")])) is None
    assert expected.verify_mismatch(seven, result(1, [("fusion", "fail")]))
    assert expected.verify_mismatch(seven, result(0, [("fusion", "fail")]))
    assert expected.verify_mismatch(seven, result(0, []))
    rejected = next(r for r in expected.VERIFY_REQUESTS if r.exit_code == 2)
    assert expected.verify_mismatch(
        rejected, {"exit": 2, "stdout": "", "stderr": "error: no\n"}) is None
    assert expected.verify_mismatch(
        rejected, {"exit": 2, "stdout": "", "stderr": "Traceback (most recent call last)\n"})


def test_wrapping_reaches_every_binding_and_is_undone():
    from axialcheck import algebra, axial, catalog

    original = algebra.multiply
    tracer = Tracer()
    with tracer.installed():
        assert axial.multiply is algebra.multiply is not original
        alg, dd = catalog.instantiate("ThreeEvX")
        axial.split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
    assert algebra.multiply is axial.multiply is original
    summary = tracer.summary()
    assert summary["axial.split_eigenspace"]["count"] == 1
    # split_eigenspace multiplies through axial's own binding of multiply
    assert summary["algebra.multiply"]["count"] > 0
    assert tracer.count("fields.mul") > 0
    for row in summary.values():
        assert row["self_s"] <= row["total_s"] + 1e-9 or row["count"] == 0

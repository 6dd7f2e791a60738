"""Benchmark of the axialcheck verifier.

    python3 perfbench/run.py --workload verify|claims|matsuo --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src, and
generated files go to ./.perfbench.  Each workload is a closed loop driven by
one client with no threads: the next request starts when the previous one
has ended.

With --trace 0 the run measures end-to-end metrics in passes over the
workload's ops, as many as fit in --seconds and at least one: every request
is a fresh axialcheck process, as a user would start it.  With --trace 1 it
makes one pass in a single process, first untraced and then with every
layer's public functions wrapped, and reports per-layer metrics.

Every output is checked against the expected verdicts (expected.py) or the
closed-form Matsuo answers (matsuo.py).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A wrong verdict makes
the exit code 1; a checkout without src/axialcheck makes it 2, with no result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import expected
import matsuo
import metrics
from hostspeed import normalized, parse_line

HERE = Path(__file__).resolve().parent
LAUNCH = str(HERE / "launch.py")
WORKER = str(HERE / "worker.py")
WORKLOADS = ("verify", "claims", "matsuo")
SETUPS_PER_PASS = 3
IMPORT_REPEATS = 3
OP_TIMEOUT_S = 170


class Checkout:
    """The checkout under test: where the program lives and how to start it."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.work = root / ".perfbench"
        if not (self.src / "axialcheck" / "__init__.py").is_file():
            raise FileNotFoundError(f"no axialcheck package under {self.src}")
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def run(self, argv, stdin=None):
        """Run a child process to completion: (seconds, CompletedProcess)."""
        start = time.perf_counter()
        proc = subprocess.run(
            argv, input=stdin, capture_output=True, text=True, cwd=self.root,
            env=self.env, timeout=OP_TIMEOUT_S,
        )
        return time.perf_counter() - start, proc

    def cli(self, args):
        """One `axialcheck <args>` process: (normalized seconds, result, wall seconds)."""
        wall, proc = self.run([sys.executable, LAUNCH, "cli", *args])
        stderr, gauge = parse_line(proc.stderr)
        if gauge is None:
            raise RuntimeError(f"no gauge line from the launcher:\n{proc.stderr[-2000:]}")
        gauges, speed, spent_s = gauge
        result = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": stderr}
        return normalized(wall - spent_s, gauges, speed), result, wall

    def setup(self):
        """Normalized seconds to import axialcheck and build the catalog."""
        _wall, proc = self.run([sys.executable, LAUNCH, "setup"])
        seconds, rest = proc.stdout.split(" ", 1)
        _text, (gauges, speed, _spent_s) = parse_line(rest)
        return normalized(float(seconds), gauges, speed)

    def worker(self, command, payload):
        _seconds, proc = self.run([sys.executable, WORKER, command], json.dumps(payload))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {command} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def emit_files(checkout: Checkout):
    """Write `catalog emit` output for the file requests; label -> path."""
    checkout.work.mkdir(exist_ok=True)
    paths = {}
    for name in expected.FILE_ENTRIES:
        _seconds, result, _wall = checkout.cli(["catalog", "emit", name])
        if result["exit"] != 0:
            raise RuntimeError(f"catalog emit {name} failed: {result['stderr'].strip()}")
        path = checkout.work / f"{name}.json"
        path.write_text(result["stdout"], encoding="utf-8")
        paths[f"{{file:{name}}}"] = str(path)
    return paths


def verify_ops(rng, files):
    """All verify requests in a seed-shuffled order."""
    requests = list(expected.VERIFY_REQUESTS)
    rng.shuffle(requests)
    return [
        {
            "kind": "verify",
            "key": req.name,
            "argv": ["verify", *(files.get(a, a) for a in req.args), "--json"],
        }
        for req in requests
    ]


def claims_ops():
    return [{"kind": "claims", "key": "claims", "argv": ["catalog", "claims", "--json"]}]


def matsuo_ops(rng):
    return [
        {"kind": "matsuo", "key": case.name, "case": case.as_dict()}
        for case in matsuo.generate_pass(rng)
    ]


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

_REQUESTS = {req.name: req for req in expected.VERIFY_REQUESTS}


def mismatch(op, result):
    """Why an op's result is wrong, or None."""
    if op["kind"] == "verify":
        return expected.verify_mismatch(_REQUESTS[op["key"]], result)
    if op["kind"] == "claims":
        return expected.claims_mismatch(result)
    if "error" in result:
        return result["error"]
    case = op["case"]
    n_dim = len(case["labels"])
    got = (result["dims"], result["violations"], result["miyamoto_is_flip"],
           result["generated_dim"])
    want = (case["expected_dims"], 0, True, n_dim)
    if got != want:
        return f"{case['name']}: (parts, violations, miyamoto is flip, generated) = {got}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# timed run
# ---------------------------------------------------------------------------


def run_pass(checkout, workload, ops):
    """One pass: results, and per op its normalized and its wall seconds.
    Every verify or claims request is a fresh process; the matsuo cases of
    a pass run in one fresh worker."""
    if workload == "matsuo":
        results = checkout.worker("matsuo", [op["case"] for op in ops])["results"]
        seconds = [normalized(r["seconds"], r["gauges"], r["speed"]) for r in results]
        return results, seconds, [r["seconds"] for r in results]
    results, seconds, walls = [], [], []
    for op in ops:
        op_s, result, wall = checkout.cli(op["argv"])
        results.append(result)
        seconds.append(op_s)
        walls.append(wall)
    return results, seconds, walls


def timed_run(checkout, workload, rng, seconds):
    """Passes over the ops while they fit in --seconds, at least one.

    Times are normalized seconds (hostspeed.py).  pass_s is the median over
    the passes of the sum of the pass's op latencies.  op_p50_s and op_p90_s
    are taken over the ops, each at its median latency over the passes, so
    that they mean the same whether one pass fits or several.  setup_s is
    the median of SETUPS_PER_PASS fresh interpreters before each pass.
    """
    files = emit_files(checkout) if workload == "verify" else {}
    fixed_ops = matsuo_ops(rng) if workload == "matsuo" else claims_ops()

    setups, passes, walls, by_op = [], [], [], {}
    attempted, failures = 0, []
    start = time.perf_counter()
    while True:
        ops = verify_ops(rng, files) if workload == "verify" else fixed_ops
        setups.extend(checkout.setup() for _ in range(SETUPS_PER_PASS))
        results, op_seconds, op_walls = run_pass(checkout, workload, ops)
        passes.append(sum(op_seconds))
        walls.append(sum(op_walls))
        for op, result, op_s in zip(ops, results, op_seconds):
            by_op.setdefault(op["key"], []).append(op_s)
            attempted += 1
            why = mismatch(op, result)
            if why is not None:
                failures.append(why)
        # start another pass only if it can end within the measuring time
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break

    latencies = sorted(statistics.median(v) for v in by_op.values())
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(passes),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": _p90(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    print(f"{workload}: {len(passes)} passes, {attempted} ops, {len(failures)} failed "
          f"(failed_ops {len(failures) / attempted:.4f})")
    print(f"  pass_s normalized {' '.join(f'{p:.3f}' for p in passes)}; "
          f"wall {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"  host slowdown (wall / normalized) {' '.join(f'{w / p:.2f}' for w, p in zip(walls, passes))}")
    print(f"  op latency p50 {values['op_p50_s']:.4f} s, p90 {values['op_p90_s']:.4f} s "
          f"over {len(latencies)} ops x {len(passes)} passes; "
          f"setup_s over {len(setups)} interpreters")
    return attempted, failures, values


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def import_times(checkout):
    """Median self import seconds of each axialcheck module, from -X importtime."""
    samples = {}
    for _ in range(IMPORT_REPEATS):
        _seconds, proc = checkout.run(
            [sys.executable, "-X", "importtime", "-c", "import axialcheck.cli"]
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("axialcheck."):
                module = parts[2].split(".", 1)[1]
                samples.setdefault(module, []).append(int(parts[0]) / 1e6)
    return {module: statistics.median(v) for module, v in samples.items()}


def traced_run(checkout, workload, rng):
    if workload == "verify":
        ops = verify_ops(rng, emit_files(checkout))
    elif workload == "claims":
        ops = claims_ops()
    else:
        ops = matsuo_ops(rng)
    imports = import_times(checkout)
    out = checkout.worker("trace", {"ops": ops})

    wrong = {}
    for index, (op, result) in enumerate(zip(ops, out["results"])):
        why = mismatch(op, result)
        if why is not None:
            wrong[index] = why
    if workload == "verify":
        # isolation: a fresh process never finds a cached instantiate or verify
        for index, hits in out["cache_hits_by_op"].items():
            wrong.setdefault(int(index), f"{ops[int(index)]['key']} hit the catalog caches {hits} times")
    failures = list(wrong.values())
    verifies = out["functions"]["catalog.verify_entry"]["count"] + sum(
        1 for op in ops
        if op["kind"] == "verify" and op["key"].startswith("file:")
    )
    values = metrics.per_layer_values(out, imports, verifies)
    print(f"{workload} traced: {len(ops)} ops, {len(failures)} failed, {out['spans']} spans")
    print(f"  untraced pass {out['untraced_pass_s']:.3f} s, traced pass "
          f"{out['traced_pass_s']:.3f} s")
    print("  function                          count     self_s    total_s")
    for name, row in out["functions"].items():
        print(f"  {name:<32}{row['count']:>7}{row['self_s']:>11.4f}{row['total_s']:>11.4f}")
    for name, count in out["counts"].items():
        print(f"  {name:<32}{count:>7}")
    return len(ops), failures, values


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        checkout = Checkout(Path.cwd())
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of an axialcheck checkout", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    # the client and every process it starts share one processor, the one
    # the host-speed gauges measure (hostspeed.py)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.trace:
        attempted, failures, values = traced_run(checkout, args.workload, rng)
        units = metrics.PER_LAYER_UNITS
    else:
        attempted, failures, values = timed_run(checkout, args.workload, rng, args.seconds)
        units = metrics.END_TO_END_UNITS
    for why in failures[:20]:
        print(f"  wrong: {why}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

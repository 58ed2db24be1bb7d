"""mimo3way benchmark: one workload per invocation, one worker at a time.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 9001 --seconds 20 --trace 1

Workloads (why each exists is in BENCHMARK.json):
  certify    exact path, seven CLI calls per config over the 220 configs
             with m1 <= 10, in a seed-shuffled order, no config repeated;
  zf-verify  draw -> build -> verify over the criterion-3 scheme mix;
  mc-slope   estimate_dof plus rate curves on four fixed configs.

--trace 0 measures the end-to-end metrics with six workers in turn, each
a fresh process with BLAS/OpenMP pinned to one thread, timing a disjoint
sixth of the inputs for a sixth of --seconds; their ops are pooled and
setup_s is the median of their six set-up times. --trace 1 measures the
per-layer metrics: an untraced worker runs for half of --seconds, then a
traced worker repeats exactly its ops; the ratio of their throughputs is
trace.overhead_ratio. Times are scaled to a reference machine speed by the
calibration kernel in bench/worker.py; the unscaled figures are kept in the
run record. Both modes check every output with bench/oracle.py, check that
workers given the same seed produce identical output digests, print the
metrics as "name value unit" lines, and print the JSON result as the last
line. Any failed op makes the exit code 1.

Seeds 1 to 10 built the recorded baseline (bench/baseline.json); confirm a
claimed gain on a held-out seed such as 9001 as well. Run records and spans
go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("certify", "zf-verify", "mc-slope")
PARTS = 6
MIN_OPS = 100
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("MIMO3WAY_SEED", None)
    env.pop("PYTHONPATH", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _spawn(deadline: float, *args) -> tuple[float, dict]:
    """Run one worker; returns (seconds from spawn to its ready line, record)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *map(str, args)], stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT
    )
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(map(str, args))} exited {proc.returncode} without a result")
    return setup_s, json.loads(rest.splitlines()[-1])


def _provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _digest_mismatches(records, key) -> list[str]:
    """Workers given the same seed must produce identical output digests."""
    first = records[0][key]
    return [f"{key} of worker {i} differs from worker 0" for i, r in enumerate(records[1:], 1) if r[key] != first]


def _scaled(record, key) -> list[float]:
    return [x * f for x, f in zip(record[key], record["scale"])]


def _end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """PARTS fresh workers, each timing a disjoint part of the inputs for
    seconds/PARTS; their ops are pooled and their set-up times give a median."""
    runs = [
        _spawn(deadline, "--workload", workload, "--seed", seed, "--part", j, "--parts", PARTS,
               "--seconds", seconds / PARTS, "--min-ops", -(-MIN_OPS // PARTS))
        for j in range(PARTS)
    ]
    records = [r for _, r in runs]
    wall_ms = [1e3 * x for r in records for x in _scaled(r, "wall_s")]
    raw_ms = [1e3 * x for r in records for x in r["wall_s"]]
    metrics = {
        "setup_s": statistics.median(s * r["setup_scale"] for s, r in runs),
        "ops_per_s": len(wall_ms) / (sum(wall_ms) / 1e3),
        "op_p50_ms": _quantile(wall_ms, 50),
        "op_p90_ms": _quantile(wall_ms, 90),
        "cpu_ms_per_op": 1e3 * sum(x for r in records for x in _scaled(r, "cpu_s")) / len(wall_ms),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    raw = {
        "setup_s": statistics.median(s for s, _ in runs),
        "ops_per_s": len(raw_ms) / (sum(raw_ms) / 1e3),
        "op_p50_ms": _quantile(raw_ms, 50),
        "op_p90_ms": _quantile(raw_ms, 90),
    }
    return metrics, records, _digest_mismatches(records, "warmup_digest"), {"unscaled": raw}


def _per_layer(workload: str, seed: int, seconds: float, deadline: float):
    """An untraced worker for seconds/2, then a traced worker on exactly its ops."""
    common = ("--workload", workload, "--seed", seed)
    _, plain = _spawn(deadline, *common, "--seconds", seconds / 2, "--min-ops", MIN_OPS)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.tsv")
    _, traced = _spawn(deadline, *common, "--ops", len(plain["wall_s"]), "--trace", spans)
    metrics = dict(traced["trace"]["metrics"])
    metrics["trace.overhead_ratio"] = sum(_scaled(plain, "wall_s")) / sum(_scaled(traced, "wall_s"))
    records = [plain, traced]
    mismatches = _digest_mismatches(records, "warmup_digest") + _digest_mismatches(records, "digests")
    return metrics, records, mismatches, {"table": traced["trace"]["table"], "ops": len(traced["wall_s"])}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, provenance: dict) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    measure = _per_layer if trace else _end_to_end
    metrics, records, mismatches, extra = measure(workload, seed, seconds, deadline)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records) + len(mismatches)
    if not trace:
        metrics["pass_ratio"] = 1.0 - failed / attempted
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
        "failures": mismatches + [f for r in records for f in r["failures"]],
        "provenance": {**provenance, "numpy": records[0]["numpy"]},
        **extra,
    }


def _print_table(table, ops: int) -> None:
    print(f"per-layer trace over {ops} ops (raw times): calls, inclusive ms/call, self ms/op")
    for name, calls, total_ms, self_ms in sorted(table, key=lambda row: -row[3]):
        if calls:
            print(f"  {name:<42} {calls:>9} {total_ms / calls:>10.4f} {self_ms / ops:>10.4f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        provenance = _provenance()
        results = {}
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec, provenance)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    for workload, out in results.items():
        with open(os.path.join(OUT, f"{workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(out, fh, indent=1)
        print(f"# {workload} provenance: {json.dumps(out['provenance'])}")
        if "table" in out:
            _print_table(out["table"], out["ops"])
        for failure in out["failures"][:20]:
            print(f"# FAILED: {failure}")
        for name, m in out["result"]["metrics"].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    final = {w: out["result"] for w, out in results.items()}
    print(json.dumps(final[args.workload] if args.workload != "all" else final))
    return 0 if all(r["correct"] for r in final.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

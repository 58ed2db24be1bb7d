"""One benchmark worker: a single process running part of one workload.

Started by bench/run.py, never concurrently with another worker. It imports
mimo3way from the checkout's src/, runs one untimed warm-up op (the first
input of part 0, the same in every worker of a run), prints "ready", then
times its part's ops until --seconds have passed (and at least --min-ops
ran), until --ops ops ran, or until the part's inputs run out. Every op's
output is checked by the oracle after its timer stops. The last stdout line
is a JSON record of the run.

Machine speed on a shared host drifts by tens of percent between runs, so
the worker also times a fixed numpy/Fraction kernel that does not touch
mimo3way before the loop and after every ~0.1 s of ops. Each op's times are
scaled by REF_KERNEL_S / (kernel time around its block), giving times at a
reference machine speed; the raw times are recorded next to them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import numpy
from numpy.linalg import norm, solve, svd  # bound before any tracer wraps numpy.linalg

import oracle
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import mimo3way  # noqa: E402  (must come from SRC; main checks)
from mimo3way import channel, cli, rates, schemes  # noqa: E402
from mimo3way.channel import AntennaConfig  # noqa: E402
from mimo3way.schemes import SchemeTag  # noqa: E402

DIGESTS = os.path.join(HERE, "certify_digests.json")
REF_KERNEL_S = 1.5e-3  # median kernel time on the 2-core Xeon the baseline was recorded on
BLOCK_S = 0.1

_rng = numpy.random.default_rng(0)
_A = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_B = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))


def _kernel() -> None:
    """Small complex SVD/norm/solve/matmul plus Fraction arithmetic: the
    instruction mix of the workloads, with none of mimo3way's code."""
    for _ in range(12):
        svd(_A, compute_uv=False)
        norm(_B, 2)
        solve(_A, _B)
        _A.conj().T @ _B
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, i + 1) * Fraction(2, 3)
    str(s)


def calibrate() -> float:
    """Median of three kernel timings, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Certify:
    """Exact path through the CLI, in-process, one call per op."""

    def __init__(self):
        with open(DIGESTS) as fh:
            self.recorded = json.load(fh)

    @staticmethod
    def inputs(seed, part, parts):
        for m, call in oracle.certify_inputs(seed, part, parts):
            yield m, call, oracle.certify_argv(m, call)

    @staticmethod
    def run(op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op[2])
        return rc, out.getvalue()

    def check(self, op, result):
        m, call, _ = op
        rc, out = result
        fails, digest = oracle.check_certify(m, call, rc, out), oracle.digest(out.encode())
        if digest != self.recorded[",".join(map(str, m))][oracle.CERTIFY_CALLS.index(call)]:
            fails.append("payload digest differs from the recorded one")
        return fails, digest


class ZfVerify:
    """Library draw -> build -> verify, as acceptance criterion 3 calls it."""

    inputs = staticmethod(oracle.zf_inputs)

    @staticmethod
    def run(op):
        m, tag, seed = op
        config, tag = AntennaConfig(*m), SchemeTag(tag)
        split, _ = schemes.scheme_split(config, tag)
        channels = channel.draw_channels(split, seed)
        scheme = schemes.build_scheme(config, tag, channels, seed)
        return schemes.verify_scheme(scheme, channels, seed=seed).to_json()

    @staticmethod
    def check(op, report):
        return oracle.check_zf(op[0], op[1], report), oracle.json_digest(report)


class McSlope:
    """One Monte-Carlo slope estimate, then zero-forcing and ablated rates
    over the same SNR grid on one draw."""

    inputs = staticmethod(oracle.mc_inputs)

    @staticmethod
    def run(op):
        m, tag, seed = op
        config, tag = AntennaConfig(*m), SchemeTag(tag)
        est = rates.estimate_dof(config, tag, oracle.MC_GRID_DB, trials=oracle.MC_TRIALS, seed=seed, fit=oracle.MC_FIT)
        split, _ = schemes.scheme_split(config, tag)
        channels = channel.draw_channels(split, seed)
        scheme = schemes.build_scheme(config, tag, channels, seed)
        snrs = [10.0 ** (db / 10.0) for db in oracle.MC_GRID_DB]
        zf = [rates.sum_rate(scheme, channels, s) for s in snrs]
        ablated = [rates.ablated_sum_rate(scheme, channels, s, seed=seed) for s in snrs]
        return est.to_json(), zf, ablated

    @staticmethod
    def check(op, result):
        est, zf, ablated = result
        return oracle.check_mc(op[0], op[1], est, zf, ablated), oracle.json_digest(result)


WORKLOADS = {"certify": Certify, "zf-verify": ZfVerify, "mc-slope": McSlope}


def _attempt(workload, op):
    """Run and check one op; returns (wall s, cpu s, failures, digest).
    Any exception is a failed op, counted and never raised."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = workload.run(op)
    except Exception as exc:
        t1, c1 = time.perf_counter(), time.process_time()
        return t1 - t0, c1 - c0, [f"{type(exc).__name__}: {exc}"], None
    t1, c1 = time.perf_counter(), time.process_time()
    try:
        fails, digest = workload.check(op, result)
    except Exception as exc:
        fails, digest = [f"oracle could not read the output: {type(exc).__name__}: {exc}"], None
    return t1 - t0, c1 - c0, fails, digest


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--parts", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-ops", type=int, default=1)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--trace", metavar="SPANS", help="trace layers and write the spans to SPANS")
    args = p.parse_args()

    if not os.path.realpath(mimo3way.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"mimo3way imported from {mimo3way.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    warmup = next(workload.inputs(args.seed, 0, args.parts))
    inputs = workload.inputs(args.seed, args.part, args.parts)
    if args.part == 0:
        next(inputs)  # part 0's first input is the warm-up op

    _, _, fails, warmup_digest = _attempt(workload, warmup)
    print("ready", flush=True)
    failures = [f"warm-up: {f}" for f in fails]
    failed = int(bool(fails))

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    wall, cpu, scale, digests, kernel = [], [], [], [], [calibrate()]

    def close_block():
        """Time the kernel again and scale the block's ops by the mean of
        the kernel timings on either side of it."""
        kernel.append(calibrate())
        scale.extend([2 * REF_KERNEL_S / (kernel[-2] + kernel[-1])] * (len(wall) - len(scale)))

    start = time.perf_counter()
    for n, op in enumerate(inputs):
        if tracer is not None:
            tracer.op = n
        dt, dc, fails, digest = _attempt(workload, op)
        wall.append(dt)
        cpu.append(dc)
        digests.append(digest)
        if fails:
            failed += 1
            failures += [f"op {n} {op[:2]}: {f}" for f in fails]
        if (args.ops and n + 1 >= args.ops) or (
            args.seconds and n + 1 >= args.min_ops and time.perf_counter() - start >= args.seconds
        ):
            break
        if sum(wall[len(scale):]) >= BLOCK_S:
            close_block()
    if len(scale) < len(wall):
        close_block()

    record = {
        "numpy": numpy.__version__,
        "warmup_digest": warmup_digest,
        "attempted": 1 + len(wall),
        "failed": failed,
        "failures": failures[:20],
        "wall_s": wall,
        "cpu_s": cpu,
        "scale": scale,
        "setup_scale": REF_KERNEL_S / kernel[0],  # kernel timed right after set-up
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["trace"] = tracer.summary(len(wall), statistics.median(scale) if scale else 1.0)
        tracer.write_spans(args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for the gmebound CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (``src/gmebound`` must exist) in
one fresh process per call.  It writes the workload's seeded inputs, times
``import gmebound.cli`` (set-up), runs one cold pass and then warm passes of
the workload's op list for ``--seconds`` in a closed loop from one client,
and checks every op's output.  Each op is ``gmebound.cli.main(argv)`` with
``--output`` going to a scratch file under ``perfbench/out``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` warm passes alternate between untraced and traced, and it
reports the per-layer metrics of the traced passes, the tracing overhead,
and fails any op whose traced output differs from its untraced output.
The line before the last holds provenance and run details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
# rungs far apart, so that runs fitting a few passes more or less (40 to 199
# samples on two of the workloads) all land on the same rung
TAIL_LADDER = (99.9, 99.0, 95.0, 75.0, 50.0)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import gmebound.cli\n"
    "print(time.perf_counter() - t0)\n"
)
# timings the battery prints beside each check, e.g. "(0.12s)", "elapsed 0.002s"
TIMING = re.compile(rb"\d+\.\d+s\b")

sys.path.insert(0, HERE)
from checks import CheckFailed, compare_fingerprint, fingerprint, load_golden  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile of a fixed ladder with at least ten samples beyond it.

    Returns (value, percentile, samples beyond), nearest-rank.  A fixed
    ladder keeps the chosen percentile, and so the op it lands on, the same
    when a run fits one pass more or less.  Below twenty samples no rung
    qualifies and the median stands in.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    rank = math.ceil(n / 2)
    return ordered[rank - 1], 50.0, n - rank


class Runner:
    """Runs passes over one workload's ops and checks every output."""

    def __init__(self, ops: list[tuple[Op, list[str]]], inputs: dict, work: str, golden: dict):
        self.ops = ops
        self.inputs = inputs
        self.work = work
        self.golden = golden
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self._verdicts: dict[tuple[str, str], str | None] = {}
        self._untraced: dict[str, bytes] = {}

    def _verify(self, op: Op, rc, data: bytes) -> str | None:
        if rc != op.rc:
            return f"exit code {rc!r}, want {op.rc}"
        key = (op.name, hashlib.sha256(data).hexdigest())
        if key not in self._verdicts:
            self._verdicts[key] = self._check(op, data)
        return self._verdicts[key]

    def _check(self, op: Op, data: bytes) -> str | None:
        try:
            text = data.decode("utf-8")
            op.check(text, self.inputs)
            if op.golden:
                if op.name not in self.golden:
                    raise CheckFailed("no golden value recorded")
                compare_fingerprint(fingerprint(op.golden, text), self.golden[op.name], op.name)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None

    def run_op(self, op: Op, argv: list[str], label: str) -> float:
        import gmebound.cli

        out = os.path.join(self.work, op.name + ".out")
        if os.path.exists(out):
            os.remove(out)
        if self.tracer is not None:
            self.tracer.begin_op(label)
        t0 = time.perf_counter()
        try:
            rc = gmebound.cli.main(argv + ["--output", out])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that crashes is a failed op, not a failed run
            traceback.print_exc()
            rc = "exception"
        latency = time.perf_counter() - t0
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except OSError:
            data = b""
        problem = self._verify(op, rc, data)
        if self.tracer is not None:
            self.output_bytes += len(data)
            want = self._untraced.get(op.name)
            if problem is None and want is not None and TIMING.sub(b"", data) != want:
                problem = "output differs with tracing on"
        elif problem is None:
            self._untraced.setdefault(op.name, TIMING.sub(b"", data))
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")
            print(f"op failed: {label}: {problem}", file=sys.stderr)
        return latency

    def run_pass(self, number: int) -> list[float]:
        return [self.run_op(op, argv, f"{number}:{op.name}") for op, argv in self.ops]


def import_probe() -> float:
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gmebound")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    import gmebound.cli as cli

    width_fn = getattr(cli, "_thread_count", None)
    try:
        width = width_fn() if callable(width_fn) else 1
    except Exception as exc:  # the pool's own validation error, reported as is
        width = f"error: {exc}"
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "GMEBOUND_THREADS": os.environ.get("GMEBOUND_THREADS"),
        "sweep_pool_width": width,
    }


def measure(args: argparse.Namespace, work: str) -> dict:
    workload = WORKLOADS[args.workload]
    inputs = workload.write_inputs(args.seed, work)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import gmebound.cli  # noqa: F401  (the timed set-up)
    setup = [time.perf_counter() - t0]
    import gmebound

    if not os.path.abspath(gmebound.__file__).startswith(os.path.join(SRC, "gmebound")):
        raise RuntimeError(f"gmebound imported from {gmebound.__file__}, not from {SRC}")
    setup += [import_probe() for _ in range(SETUP_SAMPLES - 1)]

    runner = Runner([(op, op.resolve(inputs)) for op in workload.ops], inputs, work,
                    load_golden())
    cold = sum(runner.run_pass(0))

    plain: list[list[float]] = []
    traced: list[list[float]] = []
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    number = 1
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            runner.tracer = tracer
            try:
                traced.append(runner.run_pass(number))
            finally:
                tracer.uninstall()
                runner.tracer = None
        else:
            plain.append(runner.run_pass(number))
        number += 1
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or len(traced) == len(plain)):
            break

    per_op = {op.name: [p[i] for p in plain] for i, op in enumerate(workload.ops)}
    latencies = [x for p in plain for x in p]
    tail, pct, beyond = tail_latency(latencies)
    pass_s = statistics.median(sum(p) for p in plain)
    detail = {
        "provenance": provenance(args.workload, args.seed),
        "passes": len(plain),
        "pass_times_s": [sum(p) for p in plain],
        "op_latencies_s": per_op,
        "cold_pass_s": cold,
        "ops_per_pass": len(workload.ops),
        "op_latency_samples": len(latencies),
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "setup_samples_s": setup,
        "failed_ops_frac": runner.failed / runner.attempted,
        "failures": runner.failures[:20],
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (pass_s, "s"),
            "op_p50_ms": (1e3 * statistics.median(statistics.median(v) for v in per_op.values()),
                          "ms"),
            "op_tail_ms": (1e3 * tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        from tracer import layer_metrics

        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
        k = len(traced)
        totals = layer_metrics(tracer.spans)
        metrics = {name: (value / k, unit_of(name)) for name, value in sorted(totals.items())}
        metrics["cli.output_bytes"] = (runner.output_bytes / k, "B")
        traced_pass = statistics.median(sum(p) for p in traced)
        metrics["trace.overhead_ratio"] = (traced_pass / pass_s, "ratio")
        metrics["trace.spans"] = (len(tracer.spans) / k, "count")
        detail.update(traced_passes=k, traced_pass_s=traced_pass, untraced_pass_s=pass_s,
                      count_errors=tracer.count_errors)
    return {
        "detail": detail,
        "result": {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def unit_of(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gmebound", "cli.py")):
        print(f"error: no gmebound sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        report = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": report["detail"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

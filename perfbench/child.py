"""One workload of the damnet benchmark, run in its own process by
perfbench/run.py, which reads the result file this writes.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

Needs ``src`` on PYTHONPATH. Import time counts towards ``setup_s``, so the
clock starts before the heavy imports.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from glob import glob  # noqa: E402

import numpy as np  # noqa: E402

import damnet  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_SECONDS = time.perf_counter() - _STARTED
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Tally:
    """Operations attempted and failed. An exception from the operation or
    from its output check both count as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def attempt(self, op, check=None) -> tuple[float, bool]:
        """Run ``op`` (timed) and ``check`` on its output (untimed); return
        the operation's seconds and whether both succeeded."""
        self.attempted += 1
        elapsed = None
        started = time.perf_counter()
        try:
            out = op()
            elapsed = time.perf_counter() - started
            if check is not None:
                check(out)
        except Exception as exc:  # a failed operation is data, not a crash
            self.failures.append((type(exc).__name__, str(exc)[:300]))
            return (time.perf_counter() - started if elapsed is None else elapsed), False
        return elapsed, True


def measure(workload, seconds: float, tally: Tally, tracer) -> list[float]:
    """Closed loop: run operations one after another until they have taken
    ``seconds`` (at least one; output checks do not count). Return the
    seconds of each that succeeded, or of all if none did, so a broken
    program still gets a result, with ``correct`` false."""
    passed, attempted = [], []
    while not attempted or sum(attempted) < seconds:
        i = len(attempted)
        with tracer.scope("op", i):
            elapsed, ok = tally.attempt(lambda: workload.op(i), lambda out: workload.check(i, out))
        attempted.append(elapsed)
        if ok:
            passed.append(elapsed)
    return passed or attempted


def run_probes(workload) -> dict:
    """Feed inputs the program must reject through the same accounting as
    the measured operations; each must be counted as failed, with the
    expected error."""
    report = {}
    for name, op, check, expected in workload.probes():
        tally = Tally()
        tally.attempt(op, check)
        error = tally.failures[0][0] if tally.failures else None
        report[name] = {"error": error, "expected": list(expected), "ok": error in expected}
    return report


def environment(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        top, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                  capture_output=True, text=True, timeout=10,
                                  check=True).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top = sha = None
    if top is None or os.path.realpath(top) != os.path.realpath("."):
        sha = None  # the checkout is not a git repository of its own
    src_lines = 0
    for path in glob(os.path.join("src", "damnet", "*.py")):
        with open(path, "rb") as handle:
            src_lines += handle.read().count(b"\n")
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "repo.src_lines": src_lines,
    }


def run(args, workdir: str) -> dict:
    tracer = tracing.Tracer()
    if args.trace:
        # spans from the set-ups and input generation are kept as well
        tracer.active = True
        tracing.instrument_library(tracer, damnet)
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
    with tracer.scope("generate", 0):
        workload.generate()

    setup_seconds = []
    for k in range(SETUP_REPEATS):
        with tracer.scope("setup", k):
            started = time.perf_counter()
            workload.setup()
            setup_seconds.append(time.perf_counter() - started)

    tally = Tally()
    tracer.active = False
    # one untimed full-size operation first: the first touches memory the
    # later ones reuse, and reads 5-30% slower
    measure(workload, 0, tally, tracer)
    times = measure(workload, args.seconds, tally, tracer)
    record = {
        "import_s": IMPORT_SECONDS,
        "setup_seconds": setup_seconds,
        "op_seconds": times,
        "metrics": {
            "frames_per_s": workload.frames_per_op / statistics.median(times),
            "setup_s": IMPORT_SECONDS + statistics.median(setup_seconds),
        },
        "named": workload.named_results(times),
    }

    if args.trace:
        tracer.active = True
        if workload.model is not None:
            tracing.instrument_model(tracer, workload.model)
        traced = measure(workload, args.seconds, tally, tracer)
        tracer.restore()
        tracer.active = False
        layers = dict.fromkeys(tracing.per_layer_names(), 0.0)
        layers.update(tracing.layer_metrics(tracer.spans))
        layers.update(workload.memory_metrics())
        layers["trainer.dataset_bytes_per_frame"] = workload.dataset_bytes_per_frame
        layers["checkpoint.bytes"] = float(getattr(workload, "checkpoint_bytes", 0))
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(times)
        record["metrics"] = layers
        record["traced_op_seconds"] = traced
        spans_path = os.path.splitext(args.out)[0] + ".spans.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = spans_path

    checks = {}
    for name, check in workload.reference_checks():
        detail = {}
        tally.attempt(lambda: detail.update(check() or {}))
        checks[name] = detail
    record["checks"] = checks
    record["probes"] = run_probes(workload)
    record["attempted"] = tally.attempted
    record["failures"] = tally.failures
    record["correct"] = not tally.failures and all(p["ok"] for p in record["probes"].values())
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    args.seed %= 1 << 64  # numpy seeds must be non-negative

    src = os.path.realpath(os.path.join("src", "damnet"))
    if os.path.dirname(os.path.realpath(damnet.__file__)) != src:
        print(f"perfbench: imported damnet from {damnet.__file__}, not {src}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.dirname(args.out))
    try:
        record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=environment(args.seed))
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

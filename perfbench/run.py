"""Run the damnet benchmark from the root of a checkout.

    python3 perfbench/run.py --workload train-plain22 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in its own subprocess (perfbench/child.py) against the
package in ``src/``, so the peak resident set size reported is that
workload's alone; BLAS threads are capped at the usable CPU count. With
``--trace 0`` a run reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics. Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record of every run
(environment, checks, fault probes, samples) is appended to
``.perfbench_out/results.jsonl``; traced runs also leave their spans there.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


def child_env(cpus: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        try:
            requested = int(env.get(var, cpus))
        except ValueError:
            requested = cpus
        env[var] = str(min(max(requested, 1), cpus))
    return env


def run_child(workload: str, args) -> dict | None:
    """Run one workload in a subprocess; return its record with the
    subprocess's peak RSS, or None if it failed or ran out of time."""
    out = os.path.join(OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    limit = max(170.0, 60.0 + 3 * args.seconds)
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=child_env(len(os.sched_getaffinity(0))))
    deadline = time.monotonic() + limit
    pid = 0
    try:
        while not pid:
            if time.monotonic() > deadline:
                print(f"perfbench: {workload} did not finish within {limit:.0f} s",
                      file=sys.stderr)
                return None
            time.sleep(0.05)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:  # timed out or interrupted: stop the child and reap it
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"perfbench: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    with open(out) as handle:
        record = json.load(handle)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    record["metrics"]["peak_rss_mb"] = record["peak_rss_mb"]
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")
    return record


def report(workload: str, record: dict, spec: list[dict]) -> dict:
    """Print the human-readable summary and return the result-line object."""
    env = record["environment"]
    print(f"== {workload}  seed {env['seed']}  {record['seconds']:g} s  trace {record['trace']}")
    print("   env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    missing = [m["name"] for m in spec if m["name"] not in record["metrics"]]
    if missing:
        raise SystemExit(f"perfbench: {workload} did not report {missing}")
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in spec}
    for name, metric in metrics.items():
        print(f"   {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    if not record["trace"]:
        for name, (value, unit) in record["named"].items():
            print(f"   {name:<36} {value:>14.6g} {unit}")
        print(f"   {'(operations timed)':<36} {len(record['op_seconds']):>14d}")
    failed = len(record["failures"])
    print(f"   {'failed_ops_ratio':<36} {failed / record['attempted']:>14.6g} "
          f"({failed} of {record['attempted']})")
    for kind, message in record["failures"]:
        print(f"   FAILED {kind}: {message}")
    for name, detail in record["checks"].items():
        print(f"   check {name}: " + ", ".join(f"{k}={v:.3g}" for k, v in detail.items()))
    for name, probe in record["probes"].items():
        verdict = "ok" if probe["ok"] else f"NOT CAUGHT (expected {probe['expected']})"
        print(f"   fault probe {name}: {probe['error']} counted as failed: {verdict}")
    return {"correct": bool(record["correct"]), "attempted": record["attempted"],
            "failed": failed, "metrics": metrics}


def main() -> int:
    # a terminated benchmark still stops its workload subprocess
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "damnet", "__init__.py")):
        print("perfbench: src/damnet not found; run from the root of a damnet checkout",
              file=sys.stderr)
        return 2
    spec = bench["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)

    results = {}
    for workload in workloads if args.workload == "all" else [args.workload]:
        record = run_child(workload, args)
        if record is None:
            return 1
        results[workload] = report(workload, record, spec)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

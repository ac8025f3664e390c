"""denslab benchmark: end-to-end and per-layer timings of four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: picard_cli, renyi, particles, exp_moments (see WORKLOADS.md).
Each workload runs in fresh single-threaded worker processes (worker.py).
One measuring worker sets up and then runs at least two complete operations,
and more while the next one still ends within `--seconds`.  SETUPS_AROUND
workers that only set up run before it and as many after it, so set-up time
is the median of 2 * SETUPS_AROUND + 1 fresh-process set-ups spread over the
same minutes as the operations.

With `--trace 0` the result carries the end-to-end metrics (setup_s,
wall_cal, peak_rss_mb; see worker.calibrate) and the raw wall_s; with
`--trace 1` the per-layer metrics of the traced run and its overhead.
Human-readable lines come first; the last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  The full record
(environment, load average, fingerprints, spans) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from worker import THREAD_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("picard_cli", "renyi", "particles", "exp_moments")
SETUPS_AROUND = 1
DEADLINE_S = 170.0
SINGLE_THREAD = {v: "1" for v in THREAD_VARS}


class BenchError(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _spawn(cmd, deadline: float):
    """Run one worker; return (seconds until its READY line, ready info, result)."""
    env = dict(os.environ, **SINGLE_THREAD)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup_s = ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("PERFBENCH-READY "):
                setup_s = time.perf_counter() - t0
                ready = json.loads(line.split(" ", 1)[1])
            elif line.startswith("PERFBENCH-RESULT "):
                result = json.loads(line.split(" ", 1)[1])
            else:
                sys.stderr.write(line)
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None:
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with code {rc}")
    return setup_s, ready, result


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{name}-seed{seed}-trace{trace}"
    work_dir = os.path.join(RESULTS, f"work-{tag}-{os.getpid()}")
    spans_file = os.path.join(RESULTS, f"spans-{tag}.jsonl") if trace else None
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir] + (["--spans-file", spans_file] if trace else [])
    load_before = os.getloadavg()
    setups, imports, result = [], [], None
    try:
        for k in range(2 * SETUPS_AROUND + 1):
            measuring = k == SETUPS_AROUND
            setup_s, ready, out = _spawn(cmd + ([] if measuring else ["--setup-only"]), deadline)
            setups.append(setup_s)
            imports.append(ready["import_s"])
            if measuring:
                result = out
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if result is None:
        raise BenchError(f"worker for {name} printed no result")
    ops = result["ops"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": dict(result["libraries"], nproc=os.cpu_count(),
                            affinity=len(os.sched_getaffinity(0)), cpu_model=_cpu_model(),
                            load_before=load_before, load_after=os.getloadavg()),
        "setup_samples_s": setups, "import_samples_s": imports, "ops": ops,
        "attempted": len(ops), "failed": sum(1 for op in ops if op["problems"]),
    }
    if trace:
        metrics = dict(result["layers"], import_s=statistics.median(imports))
        record["trace_pairs"] = result["trace_pairs"]
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(op["wall_s"] for op in ops),
                   "wall_cal": statistics.median(op["wall_cal"] for op in ops),
                   "cal_s": statistics.median(op["cal_s"] for op in ops),
                   "peak_rss_mb": result["peak_rss_mb"]}
    record["metrics"] = metrics
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_frac"):
        return "ratio"
    if metric == "wall_cal":
        return "x"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def _report(rec: dict) -> None:
    ops, m = rec["ops"], rec["metrics"]
    env = rec["environment"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"load {env['load_before'][0]:.2f} -> {env['load_after'][0]:.2f}  "
          f"nproc {env['nproc']}  {env['cpu_model']}")
    if rec["trace"]:
        for k in sorted(m):
            print(f"  {k:<48} {m[k]:.6g} {_unit(k)}")
        print(f"  (medians over {rec['trace_pairs']} traced operations; trace.overhead_s is the "
              f"median over {rec['trace_pairs']} pairs of traced minus the untraced wall_s "
              f"just before it)")
    else:
        print(f"  setup_s      {m['setup_s']:.4f} s   median of {len(rec['setup_samples_s'])} "
              f"fresh-process set-ups")
        print(f"  wall_s       {m['wall_s']:.4f} s   median of {len(ops)} operations")
        print(f"  wall_cal     {m['wall_cal']:.3f} x   median of {len(ops)} operations, each "
              f"divided by the calibration kernel's time around it (median {m['cal_s']:.4f} s)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB  measuring process")
    print(f"  fail_frac    {rec['failed']}/{rec['attempted']} = "
          f"{rec['failed'] / rec['attempted']:.3g}  failed / attempted operations")
    print(f"  fingerprint  {sorted({op['fingerprint'] for op in ops if op['fingerprint']})}")
    for i, op in enumerate(ops):
        for p in op["problems"]:
            print(f"  op {i} FAILED: {p.strip()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="denslab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "denslab", "__init__.py")):
        print(f"perfbench: no denslab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, args.trace)
            _report(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        # exactly the metrics BENCHMARK.json lists for this mode; the results
        # file and the lines above also carry the unlisted ones
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            listed = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
        values = records[0]["metrics"]
        metrics = {k: {"value": values[k], "unit": _unit(k)} for k in listed}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": _unit(k)}
                   for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

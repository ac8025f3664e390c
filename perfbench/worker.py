"""One benchmark process: set up a workload, then time its operations.

Started by run.py in a fresh single-threaded interpreter.  It imports denslab
from the checkout's `src/`, builds the workload's inputs, prints a
`PERFBENCH-READY` line, and (unless `--setup-only`) runs complete operations:
at least MIN_OPS, then more while the next one, at the median time so far,
still ends within `--seconds`.  A fixed calibration kernel runs before the
first operation and after each one, so every operation's wall time can be
given in units of the host's speed at that moment (`wall_cal`).  With
`--trace 1` the operations alternate untraced and traced, starting untraced,
so the tracing overhead and trace neutrality come from one process; such a
run makes at least MIN_PAIRS untraced/traced pairs whatever `--seconds` says,
so its per-layer medians and its overhead rest on more than one sample.  The last line is
`PERFBENCH-RESULT <json>`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_OPS = 2      # operations of an untraced run, at least
MIN_PAIRS = 2    # untraced/traced pairs of a traced run, at least
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _library_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def calibrate() -> float:
    """Wall time of a fixed numpy/scipy kernel that calls no denslab code.

    The shared host's speed changes by up to 1.8x between minutes (CPU time
    equals wall time, so it is not scheduling), which no run length averages
    away.  Dividing an operation's wall time by this kernel's, timed in the
    same process just before and just after it, cancels most of it.  The
    kernel does the particle march's kind of work on 1e5-element arrays
    (normals, binning, FFT, interpolation), which of the kernels tried
    followed both listed workloads most closely; it takes about 0.17 s on a
    2-core Xeon.
    """
    import numpy as np
    from scipy.special import ndtri
    rng = np.random.default_rng(0)
    x = np.linspace(-6.0, 6.0, 1000)
    u = rng.random(100_000)
    t0 = time.perf_counter()
    for _ in range(16):
        z = ndtri(u)
        cells = np.clip(((z + 6.0) * (1000 / 12.0)).astype(np.int64), 0, 999)
        g = np.fft.irfft(np.fft.rfft(np.bincount(cells, minlength=1000)), 1000)
        float(np.sum(np.interp(z, x, g) + 0.1 * z))
    return time.perf_counter() - t0


def _run_ops(args, state, run, check, tracer_obj):
    """Run operations; return one record per operation."""
    ops = []
    begin = time.perf_counter()
    cal_before = calibrate()
    while True:
        k = len(ops)
        traced = tracer_obj is not None and k % 2 == 1
        op_dir = os.path.join(args.work_dir, f"op{k}")
        shutil.rmtree(op_dir, ignore_errors=True)
        os.makedirs(op_dir)
        problems, fingerprint, result = [], None, None
        gc.collect()
        if traced:
            tracer_obj.op = k
            tracer_obj.install()
        t0 = time.perf_counter()
        try:
            result = run(state, op_dir)
        except Exception:
            problems.append(traceback.format_exc(limit=3))
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer_obj.uninstall()
        if not problems:
            try:
                fingerprint, problems = check(state, op_dir, result)
            except Exception:
                problems.append("check raised: " + traceback.format_exc(limit=3))
        shutil.rmtree(op_dir, ignore_errors=True)
        cal_after = calibrate()
        cal = 0.5 * (cal_before + cal_after)
        cal_before = cal_after
        ops.append({"traced": traced, "wall_s": wall, "cal_s": cal, "wall_cal": wall / cal,
                    "fingerprint": fingerprint, "problems": problems})
        if tracer_obj is None and len(ops) < MIN_OPS:
            continue
        if tracer_obj is not None and (len(ops) % 2 or len(ops) < 2 * MIN_PAIRS):
            continue
        # stop before an operation (a traced pair) that would overrun --seconds
        step = (statistics.median(op["wall_s"] + op["cal_s"] for op in ops)
                * (1 if tracer_obj is None else 2))
        if time.perf_counter() - begin + step > args.seconds:
            return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import denslab
    import_s = time.perf_counter() - t0
    if not os.path.abspath(denslab.__file__).startswith(src + os.sep):
        print(f"perfbench: imported denslab from {denslab.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    state = setup(args.seed)
    print("PERFBENCH-READY " + json.dumps({"import_s": import_s}), flush=True)
    if args.setup_only:
        return 0

    tracer_obj = tracer.Tracer() if args.trace else None
    ops = _run_ops(args, state, run, check, tracer_obj)
    # repeats with one seed, traced or not, must reproduce the first fingerprint
    for op in ops[1:]:
        if op["fingerprint"] is not None and op["fingerprint"] != ops[0]["fingerprint"]:
            op["problems"].append(f"fingerprint {op['fingerprint']} differs from the first "
                                  f"operation's {ops[0]['fingerprint']}")
    result = {"ops": ops, "libraries": _library_record(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    if tracer_obj is not None:
        traced = [i for i, op in enumerate(ops) if op["traced"]]
        per_op = [tracer.layer_metrics(tracer_obj, i) for i in traced]
        # counts are exact, so their median stays a whole number
        layers = {k: (statistics.median_low if isinstance(per_op[0][k], int)
                      else statistics.median)([m[k] for m in per_op]) for k in per_op[0]}
        # each traced operation against the untraced one just before it, so
        # the host's drift between minutes cancels out of the difference
        diffs = [ops[i]["wall_s"] - ops[i - 1]["wall_s"] for i in traced]
        layers["trace.overhead_s"] = statistics.median(diffs)
        result["layers"] = layers
        result["trace_pairs"] = len(diffs)
        if args.spans_file:
            tracer_obj.write_spans(args.spans_file)
    print("PERFBENCH-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""needlekit benchmark: one workload, one process, a closed loop of one client.

Run from the repository root:

    python3 perfbench/run.py --workload caps --seed 1 --seconds 25 --trace 0

Each pass builds the workload's inputs afresh, then runs its jobs one
after another, each starting when the previous one ends. Passes repeat
until --seconds have gone by, and there are at least MIN_PASSES. Every
job's output is checked right after the job, outside its timed window.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the library's
public functions in spans and prints the per-layer metrics instead. In a
traced run each pass's inputs run twice, untraced and traced, in
alternating order, and the difference is the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The run's context, the per-pass
figures and (traced) the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
THREADS = len(os.sched_getaffinity(0))
# medians need three plain passes; a traced pass holds a plain and a traced run
MIN_PASSES = {False: 3, True: 2}
# BLAS reads these when numpy loads; one BLAS thread per usable core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402


def _import_library():
    """needlekit from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "needlekit", "__init__.py")):
        sys.exit(f"perfbench: no needlekit sources under {SRC}")
    sys.path.insert(0, SRC)
    import needlekit
    if os.path.dirname(os.path.dirname(os.path.abspath(needlekit.__file__))) != SRC:
        sys.exit(f"perfbench: imported needlekit from {needlekit.__file__}, not {SRC}")
    return needlekit


nk = _import_library()
import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def context(seed) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {"nproc": THREADS, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
            "blas_threads": THREADS, "seed": seed, "src_lines": src_lines}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_jobs(jobs, rec, tag) -> dict:
    """One pass over the jobs: times and failures, every output checked."""
    res = {"pipeline_s": 0.0, "checks_s": 0.0, "attempted": 0, "failed": 0,
           "incorrect": 0, "job_s": {}, "job_kind": {}, "problems": {}}
    for job in jobs:
        rec.job = f"{tag}/{job.name}"
        out = error = None
        t0 = time.perf_counter()
        try:
            out = workloads.run_pipeline(job) if job.kind == "pipeline" else job.verdict()
        except Exception as exc:  # a job that raises is a counted failure
            error = exc
        elapsed = time.perf_counter() - t0
        traced, rec.enabled = rec.enabled, False
        res["pipeline_s" if job.kind == "pipeline" else "checks_s"] += elapsed
        res["job_s"][job.name] = elapsed
        res["job_kind"][job.name] = job.kind
        res["attempted"] += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
            if not isinstance(error, nk.errors.NeedleError):
                traceback.print_exception(error, file=sys.stderr)
        elif job.kind == "pipeline":
            problems = checks.pipeline_problems(job, out)
            # a certified result that fails its check is wrong output,
            # not a reported failure
            res["incorrect"] += bool(problems)
        else:
            problems = [] if out == job.expect else [f"verdict {out}, expected {job.expect}"]
        if problems:
            res["failed"] += 1
            res["problems"][job.name] = problems
        del out
        rec.enabled = traced
    rec.job = None
    return res


def build(name, seed, k, rec, traced):
    rec.enabled, rec.job = traced, f"pass{k}-setup/"
    t0 = time.perf_counter()
    jobs = workloads.build(name, seed)
    setup_s = time.perf_counter() - t0
    rec.enabled, rec.job = False, None
    return jobs, setup_s


def measure(name, seed, seconds, trace):
    rec = spans.Recorder()
    undo = rec.install(nk) if trace else []
    passes = []
    start = time.perf_counter()
    k = 0
    while k < MIN_PASSES[trace] or time.perf_counter() - start < seconds:
        first = trace and k == 0
        rec.hooks = layers.HOOKS if first else {}
        jobs, setup_s = build(name, seed, k, rec, traced=trace)
        p = {"setup_s": setup_s}
        # traced runs time the same inputs twice, order alternating per pass
        order = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            rec.enabled = traced
            before = len(rec.spans)
            r = run_jobs(jobs, rec, f"pass{k}-{'traced' if traced else 'plain'}")
            rec.enabled = False
            if traced and first:
                p["counts"] = layers.counts(rec, len(rec.spans) - before)
            p["traced" if traced else "plain"] = r
        if k == 0:
            p["peak_rss_mb"] = _peak_rss_mb()
        passes.append(p)
        del jobs
        k += 1
    for module, attr, fn in undo:
        setattr(module, attr, fn)
    return passes, rec


def _sum_of_job_medians(runs, kind) -> float:
    """Each job's median time over the passes, summed over the jobs of a kind.

    Per-job medians keep a burst of load from elsewhere on the machine,
    which slows one job of one pass, from setting the figure."""
    names = [name for name, k in runs[0]["job_kind"].items() if k == kind]
    return sum(statistics.median(r["job_s"][name] for r in runs) for name in names)


def end_to_end(passes) -> dict:
    plain = [p["plain"] for p in passes]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "pipeline_s": (_sum_of_job_medians(plain, "pipeline"), "s"),
        "checks_s": (_sum_of_job_medians(plain, "check"), "s"),
        # later passes add only allocator fragmentation to the high-water mark
        "peak_rss_mb": (passes[0]["peak_rss_mb"], "MB"),
    }


def per_layer(passes, rec) -> dict:
    metrics = {}
    traced = [layers.times(rec.self_times(f"pass{k}-traced/")) for k in range(len(passes))]
    for name in traced[0]:
        metrics[name] = (statistics.median(t[name] for t in traced), "s")
    setup = [sum(t for name, t in rec.self_times(f"pass{k}-setup/").items()
                 if name.startswith("mmspace.")) for k in range(len(passes))]
    metrics["mmspace.build_s"] = (statistics.median(setup), "s")
    metrics["trace.overhead_s"] = (statistics.median(
        p["traced"]["pipeline_s"] - p["plain"]["pipeline_s"] for p in passes), "s")
    for name, value in passes[0]["counts"].items():
        metrics[name] = (value, layers.unit(name))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ctx = context(args.seed)
    passes, rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(passes, rec) if args.trace else end_to_end(passes)
    runs = [[r for key in ("plain", "traced") if (r := p.get(key))] for p in passes]
    # failures are counted over the passes every run makes, so the counts
    # do not depend on how many passes fit in --seconds
    counted = [r for rs in runs[:MIN_PASSES[bool(args.trace)]] for r in rs]
    attempted = sum(r["attempted"] for r in counted)
    failed = sum(r["failed"] for r in counted)
    correct = not any(r["incorrect"] for rs in runs for r in rs)

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump({"context": ctx, "workload": args.workload, "passes": passes,
                   "metrics": metrics, "spans": rec.to_json()}, fh, default=float)

    print(json.dumps({"context": ctx}))
    for p in passes:
        for r in (p.get("plain"), p.get("traced")):
            for job, problems in (r or {}).get("problems", {}).items():
                print(f"failed job {job}: {'; '.join(problems)}")
    print(f"{args.workload}: {len(passes)} passes, {attempted} jobs, {failed} failed "
          f"(fail_frac {failed / attempted:.4f} ratio)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of folmi's ``synth``, ``check`` and ``simulate`` commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 24 --trace 0

One process runs one workload (see ``perfbench/README.md``) as a closed loop
with one caller, for whole rounds over the workload's jobs until
``--seconds`` have passed.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics.  Times in the end-to-end metrics are scaled
by the machine's speed, gauged between jobs (see ``reference.py``).
Every answer of the first round is checked independently and later rounds
must repeat it exactly.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every check passed.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
# One BLAS thread: the matrices are at most 112 x 112, and a single thread
# keeps timings independent of other load on the machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "synth_per_s": "1/s",
    "check_per_s": "1/s",
    "sim_steps_per_s": "1/s",
    "certified_count": "count",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_lines():
    pkg = os.path.join(SRC, "folmi")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def code_hash():
    """Hash of folmi's sources and fixtures and of this benchmark's code."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "folmi"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "tests", "__pycache__"))
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def time_fresh_import():
    """Wall seconds from starting a new interpreter until it has imported
    ``folmi.cli``; the interpreter's exit is not timed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import folmi.cli; print('ok', flush=True)"],
                            env=env, stdout=subprocess.PIPE, text=True)
    # the child reports its import over the pipe; a hung child is killed
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        with proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
    finally:
        watchdog.cancel()
    if line != "ok\n" or proc.returncode != 0:
        raise RuntimeError(f"import folmi.cli failed in a new interpreter "
                           f"(exit code {proc.returncode})")
    return elapsed


def median_per_job(rounds, command):
    """Per job, the median over rounds of the command's scaled seconds."""
    out = {}
    for name in rounds[0].times:
        samples = [r.times[name][command] * r.factor
                   for r in rounds if command in r.times.get(name, {})]
        if len(samples) == len(rounds):
            out[name] = statistics.median(samples)
    return out


def throughput(rounds, command, work):
    per_job = median_per_job(rounds, command)
    seconds = sum(per_job.values())
    return sum(work(name) for name in per_job) / seconds if seconds else 0.0


def digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def compare_digest(workload, seed, value, code):
    """Flag a digest that differs from an earlier run of the same code."""
    path = os.path.join(OUT, f"digest-{workload}-seed{seed}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier["code"] == code:
            if earlier["digest"] != value:
                return [f"digest {value} differs from {earlier['digest']} of an "
                        f"earlier run of the same code"]
            return []
    with open(path, "w") as fh:
        json.dump({"code": code, "digest": value}, fh)
    return []


def write_spans(path, spans, jobs):
    """One JSON array per span: name, start, end, parent, design, attrs."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for rec in spans:
            name, start, end, parent, job, attrs = rec
            fh.write(json.dumps([name, start, end, parent,
                                 jobs[job].name if job >= 0 else None, attrs]))
            fh.write("\n")


def main(argv=None):
    # before anything loads numpy
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, ROOT)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "folmi", "__init__.py")):
        print(f"error: no folmi sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    from perfbench import workloads
    from perfbench.reference import NOMINAL_S, Reference

    gauge = Reference()
    import_s = []
    for _ in range(SETUP_REPEATS):
        factor = NOMINAL_S / gauge.seconds()
        import_s.append(time_fresh_import() * factor)

    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        generate = []
        for k in range(SETUP_REPEATS):
            factor = NOMINAL_S / gauge.seconds()
            start = perf_counter()
            jobs = workloads.make_jobs(args.workload, args.seed, os.path.join(work, str(k)))
            generate.append((perf_counter() - start) * factor)
        setup_s = statistics.median(import_s) + statistics.median(generate)
        return run(args, jobs, gauge, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, jobs, gauge, setup_s):
    sys.path.insert(0, SRC)
    import numpy as np

    import folmi
    from perfbench import harness, tracer

    if os.path.dirname(os.path.abspath(folmi.__file__)) != os.path.join(SRC, "folmi"):
        print(f"error: imported folmi from {folmi.__file__}", file=sys.stderr)
        return 2

    runner = harness.Runner(jobs, tracer.Instruments(), gauge)
    start = perf_counter()
    rounds = [runner.run_round(traced=False)]
    layers = []  # per-layer figures of each traced round
    spans = []  # of the last traced round
    while perf_counter() - start < args.seconds or (args.trace and len(rounds) < 3):
        if args.trace:
            rnd = runner.run_round(traced=True)
            layers.append(tracer.layer_metrics(rnd.spans, rnd.wall))
            spans, rnd.spans = rnd.spans, None
            rounds.append(rnd)
        rounds.append(runner.run_round(traced=False))
    elapsed = perf_counter() - start

    first = rounds[0]
    failures = [f for r in rounds for f in r.failures]
    failed = sum(len(r.failed) for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    code = code_hash()
    run_digest = digest(first.records)
    mismatch = compare_digest(args.workload, args.seed, run_digest, code)
    failures += mismatch
    failed += len(mismatch)

    design_jobs = [j for j in jobs if j.design]
    verdicts = {}
    for job in design_jobs:
        status = first.records[job.name].get("synth", {}).get("status", "ERROR")
        verdicts[status] = verdicts.get(status, 0) + 1
    certified = sum(
        1 for j in design_jobs if first.records[j.name].get("synth", {}).get("passed")
    )

    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    if args.trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        # the first round runs cold and is left out of the comparison
        base = sum(median_per_job(untraced[1:], c).get(j.name, 0.0)
                   for j in jobs for c in ("synth", "check", "simulate"))
        over = sum(median_per_job(traced, c).get(j.name, 0.0)
                   for j in jobs for c in ("synth", "check", "simulate"))
        metrics["trace.overhead_ratio"] = tracer.ratio(over, base)
        units = {name: unit for name, (unit, _) in tracer.PER_LAYER.items()}
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        write_spans(spans_path, spans, jobs)
    else:
        steps = first.steps
        metrics = {
            "setup_s": setup_s,
            "synth_per_s": throughput(untraced, "synth", lambda name: 1),
            "check_per_s": throughput(untraced, "check", lambda name: 1),
            "sim_steps_per_s": throughput(untraced, "simulate",
                                          lambda name: steps.get(name, 0)),
            "certified_count": certified,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": source_lines(),
    }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "jobs": len(jobs),
        "elapsed_s": elapsed,
        "round_seconds": [[r.wall, r.traced] for r in rounds],
        "round_factors": [r.factor for r in rounds],
        "command_seconds": {
            j.name: {c: [r.times[j.name].get(c) for r in rounds]
                     for c in ("synth", "check", "simulate")}
            for j in jobs
        },
        "digest": run_digest,
        "code": code,
        "verdicts": verdicts,
        "oracle_max_abs_err": first.oracle_error,
        "env": env,
        "unpatched": runner.instruments.missing,
        "metrics": metrics,
        "records": first.records,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds of {len(jobs)} jobs in {elapsed:.1f} s; command "
          "seconds per round x speed factor: " + " ".join(
              f"{r.wall:.2f}{'T' if r.traced else ''}x{r.factor:.2f}" for r in rounds))
    print(f"digest {run_digest}  verdicts {json.dumps(verdicts, sort_keys=True)}"
          + (f"  sim_max_abs_err {first.oracle_error:.3g}"
             if first.oracle_error is not None else ""))
    print("env " + json.dumps(env, sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

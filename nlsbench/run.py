"""nlslab benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 nlsbench/run.py --workload identity-1d --seed 0 --seconds 24 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Traffic is a closed loop with one client: the workload's job list runs back
to back in this process, each CLI job with ``--threads 1``, the BLAS/OpenMP
thread count capped at min(2, nproc).  One untimed warm-up pass comes first;
then passes repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median of several fresh interpreters that import nlslab and
validate every job's config) and ``peak_rss_mb``.  ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics of
``spans.PER_LAYER`` (medians over traced passes) and ``trace.overhead_frac``.

Every job's output is checked (see ``jobs``); a job fails on a nonzero
exit, an exception, a failed check, or CSV bytes that differ from an
earlier pass or run with the same seed and program source.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  The run
writes only under ``.nlsbench/`` of the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".nlsbench"
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # glibc mallopt parameters


def thread_cap() -> int:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return max(1, min(2, nproc))


def prepare_environment(cap: int) -> None:
    """Cap native threads before numpy loads; the CLI's own --out wins."""
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    os.environ.pop("NLSLAB_OUT", None)


def fix_allocator() -> str:
    """Keep freed memory in the heap instead of returning it to the kernel.

    By default glibc adapts its mmap and trim thresholds as large arrays come
    and go, so identical passes alternate between about 1e4 and 3e5 page
    faults (0.0 s against 0.5 s of system time on a 2-s pass).  Fixed
    thresholds make every timed pass run under the same allocator policy.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default allocator"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, 1 << 30) and mallopt(M_TRIM_THRESHOLD, 1 << 30):
        return "glibc mmap/trim thresholds 1 GiB"
    return "default allocator"


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nlslab
    except ImportError as err:
        raise SystemExit(f"nlsbench: cannot import nlslab from {src}: {err}")
    if Path(nlslab.__file__).resolve().parent != (src / "nlslab").resolve():
        raise SystemExit(f"nlsbench: nlslab imported from {nlslab.__file__}, not {src}")
    return nlslab


def source_digest() -> str:
    """Digest of the program and of the benchmark that generates its inputs."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "nlslab").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(args) -> float:
    """Wall time of a fresh interpreter that imports nlslab and validates."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"nlsbench: set-up failed: {proc.stderr.strip()}")
    return elapsed


class Runner:
    """Runs passes over one job list and keeps what each job produced."""

    def __init__(self, jobs, seed: int, run_dir: Path):
        from nlslab.cli import main as cli_main

        self.cli_main = cli_main
        self.jobs = jobs
        self.seed = seed
        self.run_dir = run_dir
        self.digests: dict = {}        # job -> {csv: sha256} of the first pass
        self.problems: dict = {}       # job -> problems of the last failing pass
        self.facts: dict = {job.name: [] for job in jobs}
        self.job_times: dict = {job.name: [] for job in jobs}
        self.attempted = 0
        self.failed = 0
        run_dir.mkdir(parents=True, exist_ok=True)
        for job in jobs:
            if job.run is None:
                (run_dir / f"{job.name}.json").write_text(json.dumps(job.config))

    def _call(self, job, out_dir: Path):
        if job.run is not None:
            return 0, job.run()
        argv = [job.command, "--config", str(self.run_dir / f"{job.name}.json"),
                "--out", str(out_dir), "--seed", str(self.seed), "--threads", "1"]
        return self.cli_main(argv), None

    def run_pass(self, tracer=None) -> float:
        """One pass over the job list; returns the summed job wall time."""
        wall = 0.0
        for job in self.jobs:
            out_dir = self.run_dir / job.name
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            span = tracer.open(job.name, "boxes" if job.run else "experiments") \
                if tracer else None
            start = time.perf_counter()
            try:
                code, result = self._call(job, out_dir)
                error = None
            except Exception as err:  # a job that raises counts as failed
                code, result, error = None, None, f"{type(err).__name__}: {err}"
            finally:
                elapsed = time.perf_counter() - start
                if span is not None:
                    tracer.close(span)
            wall += elapsed
            self.job_times[job.name].append(elapsed)
            self._check(job, out_dir, code, result, error)
        return wall

    def _check(self, job, out_dir, code, result, error) -> None:
        self.attempted += 1
        problems = [error] if error else []
        if not error:
            try:
                found, facts = job.check(out_dir, code, result)
                problems += found
                self.facts[job.name].append(facts)
            except Exception as err:  # unreadable output fails the job
                problems.append(f"check raised {type(err).__name__}: {err}")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out_dir.glob("*.csv"))}
        first = self.digests.setdefault(job.name, digests)
        if digests != first:
            problems.append("CSV bytes differ between passes with the same seed")
        if problems:
            self.failed += 1
            self.problems[job.name] = problems


def compare_with_earlier_runs(runner: Runner, key: str) -> None:
    """Same seed and source in the same checkout must give the same CSVs."""
    path = WORK / "digests" / f"{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        for name, digests in runner.digests.items():
            if earlier.get(name, digests) != digests:
                runner.failed += 1
                runner.problems.setdefault(name, []).append(
                    "CSV bytes differ from an earlier run with the same seed")
    elif runner.failed == 0:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(runner.digests, indent=1, sort_keys=True))


def median(values) -> float:
    return float(statistics.median(values))


def report_jobs(runner: Runner) -> None:
    for job in runner.jobs:
        times = runner.job_times[job.name]
        facts = runner.facts[job.name][-1] if runner.facts[job.name] else {}
        status = "; ".join(runner.problems.get(job.name, [])) or "checks ok"
        extra = " ".join(f"{k}={v:.3e}" for k, v in facts.items())
        print(f"job {job.name}: median {median(times):.4f} s over {len(times)} passes, "
              f"{status} {extra}".rstrip())
        for csv_name, digest in runner.digests.get(job.name, {}).items():
            print(f"  sha256 {csv_name} {digest}")


def main(argv=None) -> int:
    cap = thread_cap()
    prepare_environment(cap)
    import_program()
    import jobs as joblib

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny configs for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="import nlslab, validate the job configs and exit")
    args = parser.parse_args(argv)

    job_list = joblib.build_jobs(args.workload, args.seed, args.size)
    joblib.validate_jobs(job_list)
    if args.setup_only:
        return 0

    setup = [measure_setup(args) for _ in range(SETUP_REPEATS)]
    allocator = fix_allocator()
    run_dir = WORK / "runs" / f"{args.workload}-{args.size}-seed{args.seed}"
    runner = Runner(job_list, args.seed, run_dir)
    print(f"# nlsbench workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} thread_cap={cap} ({','.join(THREAD_VARS)}) "
          f"cli_threads=1 allocator={allocator!r} python={sys.version.split()[0]}")

    runner.run_pass()  # warm-up: lazy imports and caches; fixes the CSV digests
    untraced, traced, per_pass = [], [], []
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer is not None:
            first = len(tracer.spans)
            patched = spans.install(tracer)
            try:
                wall = runner.run_pass(tracer)
            finally:
                spans.uninstall(patched)
            traced.append(wall)
            per_pass.append(spans.pass_metrics(tracer.spans[first:], wall))
        untraced.append(runner.run_pass())
        if time.perf_counter() >= deadline:
            break
    compare_with_earlier_runs(runner, f"{source_digest()}-{args.workload}-"
                                      f"{args.size}-seed{args.seed}")

    report_jobs(runner)
    print(f"failed_frac = {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} of {runner.attempted} jobs)")
    for facts in runner.facts.values():
        if facts and "residual_max" in facts[-1]:
            print(f"residual_max = {max(f['residual_max'] for f in facts):.6e} "
                  f"(tolerance {facts[-1]['residual_tol']:.3e})")

    if tracer is None:
        metrics = {
            "wall_s": median(untraced),
            "setup_s": median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"wall_s: {len(untraced)} passes, min {min(untraced):.4f} "
              f"max {max(untraced):.4f} s; setup_s: {SETUP_REPEATS} interpreters")
        print("pass_s:", " ".join(f"{t:.4f}" for t in untraced))
        print("setup_runs_s:", " ".join(f"{t:.4f}" for t in setup))
    else:
        metrics = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        print(f"traced passes {len(traced)}, untraced passes {len(untraced)}: "
              f"wall_s traced {median(traced):.4f} s, untraced {median(untraced):.4f} s")
        trace_path = WORK / f"spans-{args.workload}-{args.size}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "thread_cap": cap,
            "columns": ["id", "name", "layer", "start", "end", "parent", "attrs"],
            "spans": spans.span_rows(tracer.spans)}))
        print(spans.summary(tracer.spans, len(traced)))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

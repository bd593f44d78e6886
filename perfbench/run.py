"""Benchmark for mahler: one workload per run, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-zeck --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs untraced for half the time, then with the tracer's
wrappers installed for the other half, and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The full
result (with the run's environment and every metric's sample count) and
the trace are written under perfbench/out/.

The library is imported from src/ of the checkout this file sits in; the
run fails (exit code 2, no result line) when it is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 7
# Seconds the calibration loop takes on the host speed that timings are
# reported at; see calibration_s.
CALIBRATION_REF_S = 0.032
IMPORT_REPEATS = 5
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
MAHLER_MODULES = ("numeration", "rings", "wfa", "automata", "equations", "serialize", "cli")


@dataclass
class Context:
    root: str
    work_dir: str
    in_process: bool


class _NoPhases:
    _null = nullcontext()

    def phase(self, name):
        return self._null


NO_PHASES = _NoPhases()


def import_mahler():
    """Import mahler afresh from ROOT/src; the package object, submodules loaded."""
    src = os.path.join(ROOT, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "mahler" or n.startswith("mahler.")]:
        del sys.modules[name]
    M = importlib.import_module("mahler")
    for name in MAHLER_MODULES:
        importlib.import_module(f"mahler.{name}")
    if not os.path.abspath(M.__file__).startswith(src + os.sep):
        raise ImportError(f"mahler was imported from {M.__file__}, not from {src}")
    return M


def git_sha():
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def calibration_s():
    """Time of a fixed pure-Python loop that never touches mahler.

    The host's speed drifts by up to about +-20% over tens of seconds, in
    CPU time as much as in wall time.  Timed work is bracketed by this
    loop, and its times are multiplied by CALIBRATION_REF_S over the mean
    of the two loop times, which removes most of that drift.
    """
    t0 = perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return perf_counter() - t0


def run_pass(jobs, verified, tracer=None):
    """Run every job once; [(job, seconds, verdict)].  Only job.run is timed."""
    ph = tracer or NO_PHASES
    results = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = perf_counter()
        try:
            with ph.phase(job.name):
                out = job.run(ph)
        except Exception:
            dt = perf_counter() - t0
            results.append((job, dt, workloads.Verdict(False, 0, detail=traceback.format_exc())))
            continue
        dt = perf_counter() - t0
        results.append((job, dt, checked(job, out, verified)))
    return results


def checked(job, out, verified):
    """Verdict for one output; a view equal to one already verified reuses it."""
    try:
        view = job.view(out)
        hit = verified.get(job.name)
        if hit is not None and hit[0] == view:
            return hit[1]
        verdict = job.check(view)
    except Exception:
        return workloads.Verdict(False, 0, detail=traceback.format_exc())
    if verdict.ok:
        verified[job.name] = (view, verdict)
    return verdict


def measure(jobs, seconds, verified, tracer=None, calibrate=True):
    """Whole passes until the time is up, at least one; [(pass, speed scale)].

    Without ``calibrate`` the scale is 1: jobs that run in child processes
    do not follow this process's calibration loop.
    """
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        before = calibration_s() if calibrate else None
        p = run_pass(jobs, verified, tracer)
        k = 2 * CALIBRATION_REF_S / (before + calibration_s()) if calibrate else 1.0
        passes.append((p, k))
    return passes


def pass_wall(p):
    return sum(dt for _, dt, _ in p)


def scaled_walls(passes):
    return [pass_wall(p) * k for p, k in passes]


def scaled_job_times(passes, keep=lambda job: True):
    return [dt * k for p, k in passes for job, dt, _ in p if keep(job)]


def tail(times):
    """(label, value) at the highest ladder percentile with >= 10 samples beyond it."""
    xs = sorted(times)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        if n * (1 - p) >= 10:
            best = p
    if best is None:
        return None
    return f"p{best * 100:g}", xs[min(n - 1, int(best * n))]


def failures(passes):
    return [(job.name, v.detail) for p in passes for job, _, v in p if not v.ok]


def peak_rss_child(args):
    """Peak RSS in MB of a fresh process that sets up and runs one pass."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--rss-child"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-RSS child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["peak_rss_kb"] / 1024


def cli_import_s():
    """Median time of a fresh interpreter that only imports mahler.cli."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import mahler.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times), len(times)


def work_dir():
    """Scratch directory of this process for files the jobs write."""
    return os.path.join(OUT_DIR, f"work-{os.getpid()}")


def setup(args, repeats, in_process):
    """Import and make the inputs `repeats` times; (jobs, M, setup times)."""
    ctx = Context(ROOT, work_dir(), in_process)
    times = []
    for _ in range(repeats):
        before = calibration_s()
        t0 = perf_counter()
        M = import_mahler()
        jobs = workloads.WORKLOADS[args.workload](M, args.seed, args.size, ctx)
        dt = perf_counter() - t0
        times.append(dt * 2 * CALIBRATION_REF_S / (before + calibration_s()))
    return jobs, M, times


def end_to_end(args):
    subprocess_cli = args.workload == "cli-session"
    jobs, _, setup_times = setup(args, SETUP_REPEATS, in_process=not subprocess_cli)
    verified = {}
    warm = [] if subprocess_cli else [run_pass(jobs, verified)]
    measured = measure(jobs, args.seconds, verified, calibrate=not subprocess_cli)
    passes = [p for p, _ in measured]
    rss = peak_rss_child(args)
    times = scaled_job_times(measured)
    walls = scaled_walls(measured)
    rates = [sum(v.coeffs for _, _, v in p if v.ok) / wall for p, wall in zip(passes, walls)]
    sizes = {(sum(v.states for _, _, v in p), sum(v.transitions for _, _, v in p))
             for p in warm + passes}
    bad = failures(warm + passes)
    if len(sizes) != 1:
        bad.append(("sizes", f"machine sizes differ between passes: {sorted(sizes)}"))
    states, transitions = min(sizes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "coeffs_per_s": (statistics.median(rates), "1/s", len(rates)),
        "job_p50_s": (statistics.median(times), "s", len(times)),
        "peak_rss_mb": (rss, "MB", 1),
        "states_total": (states, "count", 1),
        "transitions_total": (transitions, "count", 1),
    }
    attempted = sum(len(p) for p in warm + passes)
    t = tail(times)
    notes = [f"job_tail_s = {t[1]:.6g} s at {t[0]} (n = {len(times)})" if t else
             f"job_tail_s omitted: {len(times)} jobs leave no percentile >= p50 "
             "with ten jobs beyond it",
             f"fail_ratio = {len(bad) / attempted:.6g} ({len(bad)} of {attempted})",
             f"uncorrected wall_s = {statistics.median(map(pass_wall, passes)):.6g} s, "
             f"job_p50_s = {statistics.median(dt for p in passes for _, dt, _ in p):.6g} s; "
             f"median speed scale {statistics.median(k for _, k in measured):.4g}"]
    return metrics, attempted, bad, notes, None


def per_layer(args):
    cli = args.workload == "cli-session"
    jobs, M, _ = setup(args, 1, in_process=True)
    verified = {}
    warm = run_pass(jobs, verified)
    untraced = measure(jobs, args.seconds / 2, verified)
    tracer = tracing.Tracer()
    modules = {"mahler": M, **{n: sys.modules[f"mahler.{n}"] for n in MAHLER_MODULES}}
    tracer.install(modules)
    try:
        traced = measure(jobs, args.seconds / 2, verified, tracer)
    finally:
        tracer.uninstall()
    n = len(traced)
    metrics = {k: (v, unit, n) for k, (v, unit) in tracer.layer_metrics(n).items()}
    for family in ("Z", "Q", "Zmod", "Fp"):
        times = scaled_job_times(untraced, lambda job: job.ring == family)
        metrics[f"rings.{family}.job_p50_s"] = (
            statistics.median(times) if times else 0.0, "s", len(times))
    untraced_walls = scaled_walls(untraced)
    if cli:
        imp, k = cli_import_s()
        metrics["cli.import_s"] = (imp, "s", k)
        metrics["cli.in_process_s"] = (statistics.median(untraced_walls), "s",
                                       len(untraced_walls))
    else:
        metrics["cli.import_s"] = (0.0, "s", 0)
        metrics["cli.in_process_s"] = (0.0, "s", 0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(scaled_walls(traced)) / statistics.median(untraced_walls), "ratio", n)
    all_passes = [warm] + [p for p, _ in untraced + traced]
    attempted = sum(len(p) for p in all_passes)
    notes = [f"traced passes: {n}; untraced passes: {len(untraced)}; spans: {len(tracer.spans)}"]
    return metrics, attempted, failures(all_passes), notes, tracer


def rss_child(args):
    """One in-process pass in job-name order, so the peak does not follow the
    seeded order; prints the peak resident set since exec (VmHWM).

    getrusage's ru_maxrss is not used: it also counts the pages of the
    parent this process was forked from.
    """
    jobs, _, _ = setup(args, 1, in_process=True)
    for job in sorted(jobs, key=lambda job: job.name):
        job.run(NO_PHASES)
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = next(line for line in fh if line.startswith("VmHWM:"))
    print(json.dumps({"peak_rss_kb": int(hwm.split()[1])}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; 'tiny' is for the smoke test")
    parser.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_mahler()
    except ImportError as e:
        print(f"error: cannot import mahler from {ROOT}/src: {e}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.rss_child:
        try:
            return rss_child(args)
        finally:
            shutil.rmtree(work_dir(), ignore_errors=True)
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "size": args.size, "python": platform.python_version(),
           "git_sha": git_sha(), "nproc": os.cpu_count(), "platform": platform.platform()}
    measure_fn = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, bad, notes, tracer = measure_fn(args)
    finally:
        shutil.rmtree(work_dir(), ignore_errors=True)
    env["samples"] = {k: n for k, (_, _, n) in metrics.items()}
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "notes": notes,
                   "failures": [{"job": j, "detail": d} for j, d in bad]}, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + ".trace.json", env)
    for job, detail in bad:
        print(f"FAILED {job}: {detail.strip().splitlines()[-1] if detail else 'wrong output'}",
              file=sys.stderr)
    print("env: " + json.dumps(env))
    for k, (v, unit, n) in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {unit} (n = {n})")
    for line in notes:
        print(f"{args.workload} {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

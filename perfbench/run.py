#!/usr/bin/env python3
"""Benchmark for the bigrassmannian package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-condense --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

One client in one process drives the package from outside, in a closed
loop: each job starts only after the previous one has returned.  A run
repeats passes for about ``--seconds``: at least ``MIN_PASSES``, and a
further pass only while it is expected to end within ``--seconds``.  Pass p
has its own job list of fixed sizes, drawn in set-up from the seed and p
alone.  Every job's output is checked independently after its pass,
outside the timed interval.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
pass once untraced and once under the span tracer of ``bench_tracer.py``
and prints the per-layer metrics; spans go to
``perfbench/out/spans-<workload>.tsv.gz`` (the last traced run only).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with the input fingerprint, the environment, ``fail_ratio``
and the sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

import bench_checks
import bench_tracer
import bench_workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_PASSES = 4
SETUPS_PER_PASS = 2
# n <= this in every job; the warm-up fills the lru caches up to it
WARM_N = 6

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
    ("job_p50_s", "s"), ("job_p90_s", "s"), ("peak_rss_mib", "MiB"),
)

IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import bigrassmannian.cli; "
                  "print(time.perf_counter() - t)")


def load_package() -> SimpleNamespace:
    if not os.path.isfile(os.path.join(SRC, "bigrassmannian", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import bigrassmannian
    from bigrassmannian import bdet, bpoly, cli, exactpoly, permstat, tournament, vandermonde
    return SimpleNamespace(
        bdet=bdet, bpoly=bpoly, cli=cli, exactpoly=exactpoly, permstat=permstat,
        tournament=tournament, vandermonde=vandermonde,
        PolyMatrix=bigrassmannian.PolyMatrix, Polynomial=bigrassmannian.Polynomial,
        RationalFunction=bigrassmannian.RationalFunction,
        format_poly=bigrassmannian.format_poly)


def host_steal_seconds() -> float:
    """Time the hypervisor gave this machine's CPUs to others (all CPUs)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment() -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            r = None
        if r is not None and r.returncode == 0:
            commit = r.stdout.strip()
    src_hash = hashlib.sha256()
    pkg_dir = os.path.join(SRC, "bigrassmannian")
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
    }


# -- jobs ----------------------------------------------------------------------

def execute(job, pkg):
    if job.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pkg.cli.main(job.argv)
        return rc, out.getvalue()
    if job.kind == "lambda-q-recursion":
        return pkg.bpoly.bn_lambda_q(job.n, route="recursion")
    if job.kind == "lambda-q-det-ones":
        return pkg.bdet.lambda_q_det(pkg.PolyMatrix.ones(job.n))
    if job.kind == "lambda-det":
        return pkg.bdet.lambda_det(job.payload)
    raise ValueError(f"unknown job kind {job.kind!r}")


def run_pass(jobs, pkg, tracer=None) -> dict:
    """Run the jobs in order; one job starts only after the previous returned.

    A full garbage collection before each job, outside its timing, starts
    every job from the same collector state, so a job's latency does not
    depend on how much garbage the jobs before it left.  The pass's wall
    and CPU times are the sums over its jobs.
    """
    latencies, cpu, outputs = [], [], []
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = k
        gc.collect()
        t, c = time.perf_counter(), time.process_time()
        try:
            out = execute(job, pkg)
        except Exception as exc:  # a raising job is a failed job, not a crash
            out = exc
        latencies.append(time.perf_counter() - t)
        cpu.append(time.process_time() - c)
        outputs.append(out)
    return {"wall": sum(latencies), "cpu": sum(cpu),
            "latencies": latencies, "outputs": outputs}


def check_pass(jobs, result, checker) -> list[str]:
    """Failure descriptions; empty when every job's output checked out."""
    failures = []
    for job, out in zip(jobs, result["outputs"]):
        if isinstance(out, Exception):
            failures.append(f"{job.kind} n={job.n}: raised {type(out).__name__}: {out}")
            continue
        try:
            ok = checker.check(job, out)
        except Exception as exc:
            failures.append(f"{job.kind} n={job.n}: check raised {type(exc).__name__}: {exc}")
            continue
        if not ok:
            failures.append(f"{job.kind} n={job.n}: output failed its check")
    return failures


# -- set-up --------------------------------------------------------------------

def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    r = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env,
                       capture_output=True, text=True, timeout=120, check=True)
    return float(r.stdout)


def clear_caches(pkg) -> None:
    for mod in (pkg.permstat, pkg.tournament, pkg.bdet, pkg.bpoly, pkg.exactpoly):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def set_up(args, p, pkg, tmpdir):
    """One set-up from cold caches for pass p; returns (jobs, fingerprint, seconds).

    A set-up is: import in a fresh interpreter, generation of the pass's
    jobs, their matrix files, and a warm-up pass of the tiny job list that
    also fills the lru caches.
    """
    imported = import_seconds()
    clear_caches(pkg)
    t = time.perf_counter()
    jobs = wl.pass_jobs(args.workload, args.seed, p, args.scale)
    fingerprint = wl.fingerprint(jobs)
    wl.materialize(jobs, tmpdir, pkg)
    warm = wl.pass_jobs(args.workload, args.seed, 0, "tiny")
    warm_dir = os.path.join(tmpdir, "warm-up")
    os.mkdir(warm_dir)
    wl.materialize(warm, warm_dir, pkg)
    run_pass(warm, pkg)
    for n in range(1, WARM_N + 1):
        pkg.permstat.all_bigrassmannians(n)
        pkg.tournament.pair_rank(n)
    return jobs, fingerprint, imported + time.perf_counter() - t


# -- metrics -------------------------------------------------------------------

def end_to_end(setups, results) -> tuple[dict, dict]:
    latencies = [x for r in results for x in r["latencies"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall"] for r in results),
        "cpu_s": statistics.median(r["cpu"] for r in results),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setups), "wall_s": len(results), "cpu_s": len(results),
               "job_p50_s": len(latencies), "job_p90_s": len(latencies),
               "peak_rss_mib": 1}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, samples


PER_LAYER_UNITS = {"calls": "count", "perms": "count", "count": "count",
                   "terms_out": "count", "spans": "count", "exact_ratio": "ratio",
                   "fallback_ratio": "ratio", "coef_bits_max": "bits"}


def per_layer(tracer, wall_traced, wall_untraced) -> dict:
    rows = tracer.summarize()

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    m = {}
    for kind in ("mul_q", "div_q", "mul_gen", "div_gen", "ratfunc"):
        m[f"exactpoly.{kind}.calls"] = get(f"exactpoly.{kind}", "calls")
        m[f"exactpoly.{kind}.self_s"] = get(f"exactpoly.{kind}", "self_s")
    m["exactpoly.mul_q.terms_out"] = get("exactpoly.mul_q", "value_sum")
    attempts = get("exactpoly.div_q", "calls") + get("exactpoly.div_gen", "calls")
    exact = get("exactpoly.div_q", "value_sum") + get("exactpoly.div_gen", "value_sum")
    m["exactpoly.div.exact_ratio"] = exact / attempts if attempts else 1.0
    m["exactpoly.coef_bits_max"] = tracer.coef_bits_max
    for name in ("exactpoly.parse", "exactpoly.format", "exactpoly.add"):
        m[f"{name}.self_s"] = get(name, "self_s")
    cells = get("bdet.condense", "value_sum")
    m["bdet.fallback.calls"] = get("bdet.fallback", "calls")
    m["bdet.fallback.s"] = get("bdet.fallback", "incl_s")
    m["bdet.fallback_ratio"] = m["bdet.fallback.calls"] / cells if cells else 0.0
    for name in ("bdet.condense", "bdet.rational_condense", "bdet.leibniz", "bdet.permanent"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["bpoly.lambda_q_recursion.s"] = get("bpoly.lambda_q_recursion", "incl_s")
    m["bpoly.verify_all.s"] = get("bpoly.verify_all", "incl_s")
    for name in ("permstat.length_and_beta", "permstat.bruhat_leq"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["permstat.enumerate_sn.perms"] = tracer.counts["permstat.enumerate_sn.perms"]
    m["tournament.enumerate_tn.count"] = tracer.counts["tournament.enumerate_tn.count"]
    m["tournament.perfect_matching.self_s"] = get("tournament.perfect_matching", "self_s")
    m["vandermonde.product.self_s"] = get("vandermonde.product", "self_s")
    m["vandermonde.tournament_sum.self_s"] = get("vandermonde.tournament_sum", "self_s")
    for suite in wl.SUITES:
        m[f"cli.verify.{suite}.s"] = get(f"cli.verify.{suite}", "incl_s")
    for layer in bench_tracer.LAYERS:
        m[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in rows.items() if name.startswith(layer + "."))
    m["trace.overhead_s"] = wall_traced - wall_untraced
    m["trace.spans"] = len(tracer.name)

    def unit(name):
        last = name.rsplit(".", 1)[-1]
        return PER_LAYER_UNITS.get(last, "s")

    return {name: {"value": value, "unit": unit(name)} for name, value in m.items()}


# -- main ----------------------------------------------------------------------

def run_one(args) -> int:
    pkg = load_package()
    os.makedirs(OUT, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT)
    try:
        checker = bench_checks.Checker(pkg)
        failures, attempted, setups, fingerprints = [], 0, [], []

        def fresh_set_up(p):
            # only the pass about to run is kept, so the benchmark's own heap
            # stays the same size whatever the number of passes
            for old in os.listdir(tmp_root):
                shutil.rmtree(os.path.join(tmp_root, old))
            tmpdir = tempfile.mkdtemp(dir=tmp_root)
            jobs, fingerprint, seconds = set_up(args, p, pkg, tmpdir)
            setups.append(seconds)
            return jobs, fingerprint

        def measured_pass(jobs, tracer=None):
            # outputs are checked and dropped at once, so memory does not
            # grow with the number of passes
            nonlocal failures, attempted
            result = run_pass(jobs, pkg, tracer)
            failures += check_pass(jobs, result, checker)
            attempted += len(jobs)
            del result["outputs"]
            return result

        if args.trace:
            jobs, fingerprint = fresh_set_up(0)
            fingerprints.append(fingerprint)
            untraced = measured_pass(jobs)
            tracer = bench_tracer.Tracer(pkg)
            tracer.install()
            try:
                traced = run_pass(jobs, pkg, tracer)
            finally:
                tracer.uninstall()
            failures += check_pass(jobs, traced, checker)
            attempted += len(jobs)
            metrics = per_layer(tracer, traced["wall"], untraced["wall"])
            spans_path = os.path.join(OUT, f"spans-{args.workload}.tsv.gz")
            tracer.write(spans_path)
            samples = {"passes": 1, "jobs": len(jobs), "spans": len(tracer.name),
                       "spans_file": os.path.relpath(spans_path, ROOT),
                       "unwrapped": tracer.missing}
        else:
            results = []
            steal0 = host_steal_seconds()
            start = time.perf_counter()
            # fresh set-ups before every pass spread the set-up samples over
            # the whole run, like the pass samples
            while len(results) < MIN_PASSES or (
                    time.perf_counter() - start + statistics.median(
                        r["wall"] for r in results) <= args.seconds):
                for _ in range(SETUPS_PER_PASS):
                    jobs, fingerprint = fresh_set_up(len(results))
                fingerprints.append(fingerprint)
                results.append(measured_pass(jobs))
            metrics, samples = end_to_end(setups, results)
            samples["passes"] = len(results)
            samples["pass_wall_s"] = [round(r["wall"], 4) for r in results]
            samples["pass_cpu_s"] = [round(r["cpu"], 4) for r in results]
            samples["setup_each_s"] = [round(x, 4) for x in setups]
            samples["host_steal_s"] = round(host_steal_seconds() - steal0, 3)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    fail_ratio = len(failures) / attempted
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} fail_ratio {fail_ratio:.6g} ratio "
          f"({len(failures)} of {attempted} jobs)")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace,
        "fingerprint": hashlib.sha256("".join(fingerprints).encode()).hexdigest(),
        "pass_fingerprints": fingerprints,
        "environment": environment(), "fail_ratio": fail_ratio,
        "samples": samples, "failures": failures[:20],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}, sort_keys=True))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined, attempted, failed, status = {}, 0, 0, 0
    for workload in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        r = subprocess.run(cmd, capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(r.stderr)
        if r.returncode not in (0, 1) or not lines:
            print(f"error: workload {workload} exited with {r.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        status = max(status, r.returncode)
        for name, metric in result["metrics"].items():
            combined[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(wl.SIZES), default="full",
                        help="job sizes; 'tiny' is for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

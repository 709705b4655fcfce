"""Self-test of the benchmark: schema, checker strength, tracer hygiene.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import bench_checks  # noqa: E402
import bench_tracer  # noqa: E402
import bench_workloads as wl  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

PKG = run.load_package()


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_smoke_run_matches_schema(workload, trace):
    r = _run("--workload", workload, "--seed", "5", "--seconds", "1",
             "--trace", str(trace), "--scale", "tiny")
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    report = json.loads(r.stdout.strip().splitlines()[-2])["report"]
    assert report["fail_ratio"] == 0
    assert len(report["fingerprint"]) == 64
    assert len(report["pass_fingerprints"]) == report["samples"]["passes"]
    assert report["environment"]["python"]


def test_same_seed_same_inputs_other_seed_other_inputs():
    a = wl.fingerprint(wl.pass_jobs("sparse-condense", 7, 1))
    assert a == wl.fingerprint(wl.pass_jobs("sparse-condense", 7, 1))
    assert a != wl.fingerprint(wl.pass_jobs("sparse-condense", 8, 1))
    assert a != wl.fingerprint(wl.pass_jobs("sparse-condense", 7, 2))


def _tiny_pass(workload):
    jobs = wl.pass_jobs(workload, 3, 0, "tiny")
    os.makedirs(run.OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.OUT)
    try:
        wl.materialize(jobs, tmp, PKG)
        return jobs, run.run_pass(jobs, PKG)
    finally:
        shutil.rmtree(tmp)


def test_corrupted_expected_value_is_a_failed_job():
    jobs, result = _tiny_pass("dense-condense")
    checker = bench_checks.Checker(PKG)
    assert run.check_pass(jobs, result, checker) == []
    ones = next(j for j in jobs if j.kind == "ones")
    checker._ones[ones.n] = checker.expected_ones_text(ones.n) + " + q^99"
    monomial = next(j for j in jobs if j.kind == "monomial")
    c, e = monomial.entries[0][0]
    monomial.entries[0][0] = (c + 1, e)
    failures = run.check_pass(jobs, result, checker)
    assert len(failures) == 2


def test_corrupted_two_variable_reference_is_a_failed_job():
    jobs, result = _tiny_pass("two-variable")
    checker = bench_checks.Checker(PKG)
    assert run.check_pass(jobs, result, checker) == []
    rec = next(j for j in jobs if j.kind == "lambda-q-recursion")
    checker._lambda_q[rec.n] = checker.lambda_q_product(rec.n) + PKG.Polynomial.constant(1)
    det = next(j for j in jobs if j.kind == "lambda-det")
    det.entries[0][0] += 1
    assert len(run.check_pass(jobs, result, checker)) == 2


def test_failed_verify_and_raising_job_are_failed_jobs():
    job = wl.Job("verify", 3, argv=["verify"])
    checker = bench_checks.Checker(PKG)
    bad = {"outputs": [(1, json.dumps({"ok": False})), ValueError("boom")]}
    assert len(run.check_pass([job, job], bad, checker)) == 2


def test_q_text_evaluation_matches_package_polynomials():
    rng = random.Random(11)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            coef = Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
            terms[(rng.randrange(-6, 12), 0, ())] = coef
        poly = PKG.Polynomial(terms)
        text = PKG.format_poly(poly)
        t = rng.randrange(2, bench_checks.P - 1)
        expected = sum(
            c.numerator * pow(c.denominator, -1, bench_checks.P) * pow(t, k[0], bench_checks.P)
            for k, c in poly.terms()) % bench_checks.P
        assert bench_checks.eval_q_text(text, t) == expected, text
    for bad in ("", "q +", "+ - q", "2*x1", "l", "q^(1/3)", "3 3"):
        assert bench_checks.eval_q_text(bad, 5) is None, bad


def test_deformed_determinant_matches_package_on_small_matrices():
    rng = random.Random(4)
    for n in (2, 3, 4):
        entries = wl.sparse_entries(n, rng)
        a = PKG.bdet.parse_matrix(wl.matrix_text(entries))
        text = PKG.format_poly(PKG.bdet.bdet_definition(a))
        t = rng.randrange(2, bench_checks.P - 1)
        assert bench_checks.eval_q_text(text, t) == bench_checks.deformed_det_mod_p(entries, t)


def _package_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "bigrassmannian" or name.startswith("bigrassmannian.")}


def test_tracer_restores_every_patched_object():
    before = {name: dict(vars(mod)) for name, mod in _package_modules().items()}
    methods = dict(vars(PKG.Polynomial))
    suites = dict(PKG.cli._SUITE_FUNCS)
    tracer = bench_tracer.Tracer(PKG)
    tracer.install()
    assert PKG.Polynomial.__rmul__ is PKG.Polynomial.__mul__ is not methods["__mul__"]
    assert PKG.bpoly.bdet_condense is PKG.bdet.bdet_condense is not before["bigrassmannian.bdet"]["bdet_condense"]
    tracer.uninstall()
    assert tracer.missing == []
    for name, mod in _package_modules().items():
        assert dict(vars(mod)) == before[name], name
    assert dict(vars(PKG.Polynomial)) == methods
    assert PKG.cli._SUITE_FUNCS == suites


def test_traced_spans_classify_operands_and_count_inexact_divisions():
    tracer = bench_tracer.Tracer(PKG)
    tracer.install()
    try:
        q = PKG.exactpoly.Q
        PKG.RationalFunction(q, q + 1)
        (q + 1) * (q - 1) * PKG.exactpoly.L
    finally:
        tracer.uninstall()
    rows = tracer.summarize()
    divs = rows["exactpoly.div_q"]
    assert divs["calls"] > divs["value_sum"]
    assert rows["exactpoly.mul_q"]["calls"] == 1
    assert rows["exactpoly.mul_gen"]["calls"] == 1
    assert rows["exactpoly.ratfunc"]["calls"] == 1
    assert all(tracer.t_enter[i] <= tracer.t_start[i] <= tracer.t_end[i] <= tracer.t_exit[i]
               for i in range(len(tracer.name)))


def test_benchmark_refuses_to_run_without_package_source():
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        r = _run("--workload", "dense-condense", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
        assert r.returncode != 0
        assert '"correct"' not in r.stdout
    finally:
        shutil.rmtree(bare)

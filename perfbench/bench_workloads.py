"""Seeded job lists for the four benchmark workloads.

A workload run is a sequence of passes; a pass is a list of jobs.  Every
job is generated here from the seed alone, so the same (workload, seed,
pass, scale) always yields the same jobs and the same matrix texts.  The package
only ever sees the generated inputs: matrix files for the CLI jobs,
``PolyMatrix`` values and sizes for the in-process route calls.

Job sizes were tuned so that one full-scale pass takes 4-5 s on a 2-vCPU
x86 host with CPython 3.11 at the commit that introduced the benchmark.  Sizes are fixed per pass and only the matrix
entries vary with the seed, which keeps the cost of a pass nearly the same
for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("dense-condense", "sparse-condense", "two-variable", "verify-mixed")

SUITES = (
    "bn", "beta", "bruhat", "tournament", "vandermonde", "condensation",
    "little-invariance", "lambda", "reading", "signbalance",
)

# {size: jobs per pass}.  Sizes fall into a few cost tiers per workload:
# the median job sits inside the middle tier and the 90th percentile inside
# the upper tier, never on a boundary between two tiers, so both
# percentiles move with the code and not with which inputs a seed drew.
SIZES = {
    "full": {
        "dense-ones": {8: 3, 9: 2, 10: 4, 12: 5},
        "dense-monomial": {7: 2, 8: 2, 9: 8, 11: 1},
        "sparse": {8: 6, 9: 8, 10: 24, 11: 10},
        "lambda-q-recursion": {6: 2, 7: 1, 8: 1},
        "lambda-q-det-ones": {5: 2, 6: 1, 7: 2},
        "lambda-det": {6: 1, 7: 1, 8: 10, 9: 4},
        # suite -> {max-n: invocations}
        "verify": {
            "bn": {5: 1, 6: 1}, "beta": {5: 1, 6: 1}, "bruhat": {5: 2, 6: 1},
            "tournament": {5: 2, 6: 1}, "vandermonde": {5: 2, 6: 1},
            "condensation": {5: 3, 6: 3}, "little-invariance": {5: 1, 6: 1},
            "lambda": {5: 2, 6: 2}, "reading": {5: 1, 6: 1},
            "signbalance": {5: 1, 6: 1},
        },
    },
    "tiny": {
        "dense-ones": {4: 1},
        "dense-monomial": {4: 1},
        "sparse": {4: 2},
        "lambda-q-recursion": {4: 1},
        "lambda-q-det-ones": {3: 1},
        "lambda-det": {4: 1},
        "verify": {suite: {3: 1} for suite in SUITES},
    },
}
VERIFY_TRIALS = {"full": 25, "tiny": 2}


@dataclass
class Job:
    """One request of the closed loop.

    ``kind`` selects how the job runs and how it is checked; ``entries``
    holds the benchmark's own record of a generated matrix, which the
    independent check uses instead of anything the package computes.
    """

    kind: str
    n: int
    seed: int = 0
    entries: list | None = None
    text: str | None = None
    argv: list = field(default_factory=list)
    payload: object = None

    def descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n, "seed": self.seed,
                "text": self.text, "argv": self.argv}


def _q_text(c: int, halves: int) -> str:
    if halves == 0:
        return str(c)
    if halves % 2:
        pw = f"q^({halves}/2)"
    else:
        pw = "q" if halves == 2 else f"q^{halves // 2}"
    return pw if c == 1 else ("-" + pw if c == -1 else f"{c}*{pw}")


def matrix_text(entries: list) -> str:
    """Matrix file text; entries[i][j] is (coefficient, q-halves) or None."""
    lines = [f"n={len(entries)}"]
    for row in entries:
        lines.append(" ; ".join("0" if e is None else _q_text(*e) for e in row))
    return "\n".join(lines) + "\n"


def ones_entries(n: int) -> list:
    return [[(1, 0)] * n for _ in range(n)]


def monomial_entries(n: int, rng: random.Random) -> list:
    """c * q^(e/2) with c in {-3..3} minus 0 and e in {0..4}, all nonzero."""
    return [[(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(5))
             for _ in range(n)] for _ in range(n)]


def sparse_entries(n: int, rng: random.Random) -> list:
    """Exactly n // 2 zeros per row; the rest are +-q^(k/2), k in {0..4}."""
    rows = []
    for _ in range(n):
        zeros = set(rng.sample(range(n), n // 2))
        rows.append([None if j in zeros else (rng.choice((-1, 1)), rng.randrange(5))
                     for j in range(n)])
    return rows


def rational_entries(n: int, rng: random.Random) -> list:
    """Positive rationals p/d, p in 1..99, d in 1..9."""
    return [[Fraction(rng.randrange(1, 100), rng.randrange(1, 10))
             for _ in range(n)] for _ in range(n)]


def _expand(sizes: dict) -> list[int]:
    return [n for n, count in sizes.items() for _ in range(count)]


def _pass_jobs(workload: str, rng: random.Random, scale: str) -> list[Job]:
    sizes = SIZES[scale]
    jobs: list[Job] = []
    if workload == "dense-condense":
        jobs += [Job("ones", n, entries=ones_entries(n)) for n in _expand(sizes["dense-ones"])]
        jobs += [Job("monomial", n, entries=monomial_entries(n, rng))
                 for n in _expand(sizes["dense-monomial"])]
    elif workload == "sparse-condense":
        jobs += [Job("sparse", n, entries=sparse_entries(n, rng)) for n in _expand(sizes["sparse"])]
    elif workload == "two-variable":
        jobs += [Job("lambda-q-recursion", n) for n in _expand(sizes["lambda-q-recursion"])]
        jobs += [Job("lambda-q-det-ones", n) for n in _expand(sizes["lambda-q-det-ones"])]
        jobs += [Job("lambda-det", n, entries=rational_entries(n, rng))
                 for n in _expand(sizes["lambda-det"])]
    elif workload == "verify-mixed":
        trials = VERIFY_TRIALS[scale]
        for suite in SUITES:
            for max_n in _expand(sizes["verify"][suite]):
                s = rng.randrange(1 << 30)
                jobs.append(Job("verify", max_n, seed=s, argv=[
                    "verify", "--suite", suite, "--max-n", str(max_n),
                    "--seed", str(s), "--trials", str(trials), "--json"]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for job in jobs:
        if job.entries is not None and job.kind != "lambda-det":
            job.text = matrix_text(job.entries)
    for job in jobs:
        # the seed of the job's independent check points
        if job.kind != "verify":
            job.seed = rng.randrange(1 << 62)
    rng.shuffle(jobs)
    return jobs


def pass_jobs(workload: str, seed: int, p: int, scale: str = "full") -> list[Job]:
    """The jobs of pass p, drawn from a stream seeded by (workload, seed, p)."""
    return _pass_jobs(workload, random.Random(f"{workload}/{seed}/{p}"), scale)


def materialize(jobs: list[Job], tmpdir: str, pkg) -> None:
    """Write matrix files and build in-process inputs (part of set-up)."""
    for j, job in enumerate(jobs):
        if job.text is not None:
            path = os.path.join(tmpdir, f"j{j}-{job.kind}-n{job.n}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(job.text)
            job.argv = ["bdet", "--matrix", path, "--method", "condense", "--json"]
        elif job.kind == "lambda-det":
            job.payload = pkg.PolyMatrix(
                [[pkg.Polynomial.constant(c) for c in row] for row in job.entries])


def fingerprint(jobs: list[Job]) -> str:
    """sha256 over the pass's job descriptors and matrix texts, in run order.

    Taken before ``materialize``, which adds temporary file paths.
    """
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps(job.descriptor(), sort_keys=True).encode())
        if job.kind == "lambda-det":
            h.update(repr(job.entries).encode())
    return h.hexdigest()

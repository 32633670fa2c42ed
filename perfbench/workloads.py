"""The four job mixes. Each function here turns a workload seed into a fixed job
list; a job is one request a user would make, sent through exacthom.cli.run
in-process when the CLI offers it and through the public library call when
it does not. Every job carries a check against a reference from oracles.py.

The seed picks the inputs (groups from same-shape pools, relabelled group
tables, matrices) and the job order; the job shapes and sizes are fixed, so
every seed costs about the same. Inputs whose cost swings too far with the
draw for a run to average it out (random padding coefficients, suite seeds)
are drawn from fixed keys instead, and the seed only places them in the
order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

import oracles


@dataclass
class Job:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # None when the answer is right
    key: Callable[[Any], Any]  # equal keys mean equal answers


def _cli_job(eh: SimpleNamespace, label: str, argv: list[str], check: Callable[[dict], Optional[str]]) -> Job:
    spec = eh.cli.job_from_args(eh.parser.parse_args(argv + ["--format", "json"]))

    def call() -> tuple[int, str]:
        return eh.cli.run(spec)

    def check_answer(answer: tuple[int, str]) -> Optional[str]:
        code, text = answer
        if code != 0:
            return f"exit status {code}: {text[:300]}"
        return check(json.loads(text))

    return Job(label, call, check_answer, lambda answer: answer)


def _mismatch(what: str, got: Any, want: Any) -> Optional[str]:
    return None if got == want else f"{what}: got {got}, expected {want}"


# ------------------------------------------------------------------ derive

# Groups of one shape cost about the same: (torsion summands, free rank).
POOLS = {
    "T2": ("Z/2 + Z/4", "Z/2 + Z/6", "Z/3 + Z/9", "Z/2 + Z/2", "Z/3 + Z/3", "Z/4 + Z/8"),
    "M2": ("Z + Z/2", "Z + Z/3", "Z + Z/4", "Z + Z/6"),
    "M4": ("Z^2 + Z/2 + Z/6", "Z^2 + Z/2 + Z/4", "Z^2 + Z/3 + Z/3", "Z^2 + Z/2 + Z/2"),
}

# (pool, functor, n, presentation): "pN" is the standard padding N through
# the CLI, "iA,B,.." a CLI --check-independence over those paddings, and
# "rN" a random padding of N generators through the library. Random
# paddings of 5-6 generators push some Smith inputs past the swell guard
# into the bounded modular route. Their cost depends on the coefficients
# drawn (tensor^3 of one group at padding 2 took 0.6 s on one draw and
# 2.0 s on another), so they are drawn from a fixed key per job, over the
# groups of the pool in turn, and not from the workload seed.
DERIVE_JOBS = (
    ("T2", "tensor", 2, "p2"), ("T2", "tensor", 3, "p1"), ("T2", "tensor", 3, "p2"),
    ("T2", "tensor", 4, "p0"), ("T2", "sym", 2, "p2"), ("T2", "sym", 4, "p2"),
    ("T2", "sym", 5, "p2"), ("T2", "ext", 3, "p1"), ("T2", "ext", 4, "p2"),
    ("T2", "ext", 5, "p2"),
    ("M2", "tensor", 2, "p1"), ("M2", "tensor", 3, "p2"), ("M2", "tensor", 4, "p1"),
    ("M2", "tensor", 5, "p0"), ("M2", "sym", 5, "p2"), ("M2", "ext", 5, "p2"),
    ("M4", "tensor", 2, "p2"), ("M4", "tensor", 3, "p0"), ("M4", "tensor", 3, "p1"),
    ("M4", "sym", 3, "p2"), ("M4", "sym", 4, "p1"), ("M4", "sym", 5, "p1"),
    ("M4", "ext", 3, "p1"), ("M4", "ext", 4, "p2"), ("M4", "ext", 5, "p1"),
    # a cluster of jobs near the median cost, so job_s.p50 sits on a plateau
    ("T2", "tensor", 3, "p1"), ("T2", "tensor", 3, "p1"), ("T2", "tensor", 3, "p1"),
    ("M4", "sym", 4, "p1"), ("M4", "sym", 4, "p1"), ("M2", "sym", 5, "p2"), ("M2", "sym", 5, "p2"),
    # two more of the costliest jobs but one, so job_s.tail (p90: 5.3 of 53
    # jobs beyond it) falls among seven jobs of 0.3-0.4 s and not on the
    # edge between them and the next job at about 0.2 s
    ("T2", "tensor", 3, "p2"), ("M4", "tensor", 3, "p1"),
    ("T2", "sym", 4, "i0,1,2"), ("T2", "ext", 3, "i0,1,2"), ("M2", "tensor", 3, "i0,1,2"),
    ("M2", "sym", 3, "i0,1"), ("M4", "ext", 4, "i0,1,2"),
    ("T2", "sym", 2, "r6"), ("T2", "ext", 2, "r6"), ("T2", "tensor", 2, "r5"),
    ("T2", "tensor", 2, "r6"), ("M2", "sym", 2, "r6"), ("M2", "ext", 2, "r6"),
    ("M2", "tensor", 2, "r6"), ("T2", "ext", 3, "r4"), ("M2", "ext", 3, "r4"),
    ("T2", "sym", 4, "r3"), ("T2", "ext", 4, "r3"), ("T2", "tensor", 3, "r2"),
    ("M4", "sym", 4, "r2"), ("M4", "ext", 4, "r2"),
)


def _derive_cli_check(want: list[str], paddings: Optional[list[int]]) -> Callable[[dict], Optional[str]]:
    def check(report: dict) -> Optional[str]:
        if paddings is None:
            return _mismatch("values", [v["group"] for v in report["values"]], want)
        runs = report["paddings"]
        if [r["padding"] for r in runs] != paddings or not report["independent"]:
            return f"independence report malformed or negative: {runs}"
        bad = [r for r in runs if r["values"] != want]
        return f"values {bad} != {want}" if bad else None

    return check


def derive(eh: SimpleNamespace, seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"derive:{seed}")
    # Balanced draw: each group of a pool fills an equal share of the slots
    # of its standard-padding jobs; random-padding jobs take the groups in turn.
    slots, fixed = {}, {}
    for pool, groups in POOLS.items():
        count = sum(1 for job in DERIVE_JOBS if job[0] == pool and job[3][0] != "r")
        slots[pool] = [groups[i % len(groups)] for i in range(count)]
        rng.shuffle(slots[pool])
        fixed[pool] = [groups[i % len(groups)] for i in range(len(DERIVE_JOBS))]
    jobs = []
    for idx, (pool, functor, n, how) in enumerate(DERIVE_JOBS):
        group = (fixed if how[0] == "r" else slots)[pool].pop()
        want = oracles.derived_values(functor, n, group)
        label = f"{functor}^{n}({group}) {how}"
        if how[0] == "r":
            job_rng = random.Random(f"derive-padding:{idx}")
            pres = eh.koszul.random_padded_presentation(eh.cli.parse_group(group), int(how[1:]), job_rng)
            f = eh.powers.FunctorKind.parse(functor, n)

            def call(f=f, pres=pres):
                return eh.koszul.derived_from_presentation(f, pres)

            def key(result):
                return [str(v) for v in result.values]

            jobs.append(Job(label, call, lambda r, want=want, key=key: _mismatch("values", key(r), want), key))
            continue
        argv = ["derive", "--functor", functor, "--n", str(n), "--group", group]
        if how[0] == "i":
            paddings = [int(p) for p in how[1:].split(",")]
            argv += ["--check-independence", "--paddings", how[1:]]
        else:
            paddings = None
            argv += ["--padding", how[1:]]
        jobs.append(_cli_job(eh, label, argv, _derive_cli_check(want, paddings)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------- grouphom

# Multiplication tables with element 0 the identity, and one presentation
# each (generator names, relators, assigned elements).
def _s3_table() -> list[list[int]]:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]


GROUPS = {
    "Z2xZ2": ([[i ^ j for j in range(4)] for i in range(4)], (["a", "b"], ["aa", "bb", "abAB"], [1, 2])),
    "S3": (_s3_table(), (["a", "b"], ["aaa", "bb", "abab"], [1, 3])),
    "Z4": ([[(i + j) % 4 for j in range(4)] for i in range(4)], (["a"], ["aaaa"], [1])),
}

# (group, coefficients, degrees) of one grouphom request. The top degree
# within the default budget runs for trivial coefficients (and augmentation
# for the abelian groups); the other requests stay below it to keep a pass
# near six seconds. Z4 always goes through --method both.
GROUPHOM_JOBS = (
    ("Z2xZ2", "trivial", 4), ("S3", "trivial", 3), ("Z2xZ2", "augmentation", 3),
    ("Z4", "augmentation", 3),
    *(("Z2xZ2", "trivial", i) for i in range(4)),
    *(("Z2xZ2", "augmentation", i) for i in range(3)),
    *(("Z2xZ2", "regular", i) for i in range(3)),
    *(("S3", "trivial", i) for i in range(3)),
    *(("S3", "augmentation", i) for i in range(2)),
    *(("S3", "regular", i) for i in range(2)),
    *(("Z4", "trivial", i) for i in range(4)),
    *(("Z4", "augmentation", i) for i in range(3)),
    *(("Z4", "regular", i) for i in range(3)),
)

# (preset, n) of one `verify four-term --preset P --n n` request. The
# second line holds small requests, four below the median job and four
# above it, that bring a pass to 50 jobs: job_s.tail (p90) then has five
# jobs per pass beyond it, so it falls between the two jobs of about 0.5 s
# (H_3 with augmentation coefficients) and not on the slower one's
# largest time, next to the gap up to the four jobs of 0.6 s and more.
FOUR_TERM_GROUPHOM = (
    ("Z2xZ2", 2), ("Z3", 4), ("Z4", 3),
    ("Z2", 2), ("Z2", 3), ("Z2", 4), ("Z3", 2), ("Z3", 3), ("Z4", 1), ("Z4", 2), ("Z2xZ2", 1),
    ("Z2", 1), ("Z3", 1), ("Z2", 2), ("Z4", 1), ("Z4", 2), ("Z2xZ2", 1), ("Z3", 3), ("Z2", 4),
)
PRESET_GENERATORS = {"Z2": (1, 2), "Z3": (1, 2), "Z4": (1, 2), "Z2xZ2": (2, 3)}


def _relabelled_group_file(name: str, rng: random.Random) -> dict:
    """The group with its non-identity elements renamed at random."""
    mult, (gens, relators, assignment) = GROUPS[name]
    order = len(mult)
    rest = list(range(1, order))
    rng.shuffle(rest)
    new = [0] + rest  # new[old] is the new label of old
    table = [[0] * order for _ in range(order)]
    for i in range(order):
        for j in range(order):
            table[new[i]][new[j]] = new[mult[i][j]]
    pres = {"generators": gens, "relators": relators, "assignment": [new[g] for g in assignment]}
    return {"table": {"order": order, "mult": table}, "presentations": [pres]}


def _grouphom_check(group: str, coeff: str, degree: int, both: bool) -> Callable[[dict], Optional[str]]:
    want = oracles.homology(group, coeff, degree)

    def check(report: dict) -> Optional[str]:
        (row,) = report["homology"]
        if both:
            if not row["agree"]:
                return f"periodic {row['periodic']} and bar {row['bar']} disagree"
            return _mismatch(f"H_{degree}", row["bar"], want)
        return _mismatch(f"H_{degree}", row["group"], want)

    return check


def _four_term_check(preset: Optional[str], n: Optional[int], count: int) -> Callable[[dict], Optional[str]]:
    def check(report: dict) -> Optional[str]:
        (suite,) = report["suites"]
        if not suite["passed"] or suite["failures"]:
            return f"suite failed: {suite['failures']}"
        details = suite["details"]
        if len(details) != count:
            return f"{len(details)} four-term details, expected {count}"
        for d in details:
            if (preset or d["group"]) != d["group"] or (n or d["n"]) != d["n"]:
                return f"unexpected detail {d}"
            gens = PRESET_GENERATORS[d["group"]][d["presentation"]]
            want = oracles.four_term(d["group"], gens, d["n"])
            if d["quadruple"] != want:
                return f"{d['group']}/{d['presentation']} n={d['n']}: {d['quadruple']} != {want}"
        return None

    return check


def _four_term_job(eh: SimpleNamespace, preset: str, n: int, seed: int) -> Job:
    argv = ["verify", "four-term", "--seed", str(seed), "--preset", preset, "--n", str(n)]
    return _cli_job(eh, f"four-term {preset} n={n}", argv, _four_term_check(preset, n, 2))


def grouphom(eh: SimpleNamespace, seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"grouphom:{seed}")
    files = {}
    for name in GROUPS:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(_relabelled_group_file(name, rng)), "utf-8")
        files[name] = str(path)
    jobs = []
    for group, coeff, degree in GROUPHOM_JOBS:
        both = group == "Z4"
        argv = ["grouphom", "--group-file", files[group], "--coeff", coeff,
                "--degrees", f"{degree}..{degree}"]
        argv += ["--method", "both"] if both else []
        check = _grouphom_check(group, coeff, degree, both)
        jobs.append(_cli_job(eh, f"H_{degree}({group}; {coeff})", argv, check))
    jobs += [_four_term_job(eh, preset, n, seed) for preset, n in FOUR_TERM_GROUPHOM]
    rng.shuffle(jobs)
    return jobs


# --------------------------------------------------------------------- snf

# (rows, cols, density, bound) -> number of matrices. Dense inputs (density
# None) have entries in [-bound, bound]; sparse, differential-like ones have
# nonzero entries in [-bound, bound]. Larger shapes are left out: their U and
# V entries can pass 4300 decimal digits, and `exacthom snf` then fails (see
# README.md); sparse 20x30 at density 0.15 does so on about one matrix in
# 1500. Dense 9x9 inputs with entries in [-9, 9] are left out too: their
# cost runs from 2 to 20 ms with the transform sizes, so eight of them cost
# twice as much on one seed as on another. The sparse inputs cost about the
# same each, and there are enough of them that the tail percentile falls
# among their `snf` jobs.
SHAPES = {(8, 8, None, 9): 8, (9, 9, None, 3): 8, (15, 30, 0.2, 2): 24, (16, 24, 0.2, 2): 24}


def _smith_check(a: list[list[int]], cols: int) -> Callable[[dict], Optional[str]]:
    def check(report: dict) -> Optional[str]:
        u, d, v = ([[int(x) for x in r] for r in report[k]["entries"]] for k in ("u", "d", "v"))
        bad = oracles.check_smith(a, cols, u, d, v)
        if bad:
            return bad
        diag = [int(x) for x in report["diagonal"]]
        if diag != [d[i][i] for i in range(min(len(a), cols))]:
            return "diagonal does not match D"
        rank = sum(1 for x in diag if x)
        coker = oracles.group_text([0] * (len(a) - rank) + [x for x in diag if x > 1])
        return _mismatch("rank", report["rank"], rank) or _mismatch("cokernel", report["cokernel"], coker)

    return check


def _check_kernel(a: list[list[int]], cols: int, k: Any) -> Optional[str]:
    return oracles.check_kernel(a, cols, k.entries, k.cols)


def _check_solve(a: list[list[int]], cols: int, b: list[list[int]], x: Any) -> Optional[str]:
    if x is None:
        return "no solution returned for a solvable system"
    return _mismatch("A*x", oracles.matmul(a, x.entries, cols), b)


def _check_hnf(a: list[list[int]], cols: int, h: Any) -> Optional[str]:
    return _mismatch("hnf", [list(r) for r in h.entries], oracles.hnf(a, cols))


def _check_det(a: list[list[int]], x: int) -> Optional[str]:
    return _mismatch("det", x, oracles.det(a))


def snf(eh: SimpleNamespace, seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"snf:{seed}")
    lib = eh.linalg
    jobs = []
    for (rows, cols, density, bound), count in SHAPES.items():
        for k in range(count):
            if density is None:
                a = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
            else:
                nonzero = [x for x in range(-bound, bound + 1) if x]
                a = [[rng.choice(nonzero) if rng.random() < density else 0
                      for _ in range(cols)] for _ in range(rows)]
            tag = f"{rows}x{cols}#{k}"
            path = workdir / f"m{tag}.json"
            path.write_text(json.dumps({"rows": rows, "cols": cols, "entries": a}), "utf-8")
            jobs.append(_cli_job(eh, f"snf {tag}", ["snf", "--input", str(path)], _smith_check(a, cols)))

            m = lib.IntMatrix.from_rows(a, cols=cols)
            x0 = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(cols)]
            b = oracles.matmul(a, x0, cols)
            mb = lib.IntMatrix.from_rows(b, cols=2)
            # the lambdas look the function up at call time, so traced runs
            # reach the wrapper
            jobs += [
                Job(f"kernel_basis {tag}", lambda m=m: lib.kernel_basis(m),
                    partial(_check_kernel, a, cols), lambda x: x.entries),
                Job(f"solve {tag}", lambda m=m, mb=mb: lib.solve(m, mb),
                    partial(_check_solve, a, cols, b), lambda x: x and x.entries),
                Job(f"hnf {tag}", lambda m=m: lib.hnf(m), partial(_check_hnf, a, cols), lambda x: x.entries),
            ]
            if rows == cols:
                jobs.append(Job(f"det {tag}", lambda m=m: lib.det(m), partial(_check_det, a), lambda x: x))
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------ verify

SUITE_CASES = {"functoriality": 1030, "koszul-d2": 300, "independence": 30}
# The suite cost swings two- to fourfold with the suite seed (koszul-d2 took
# 1.3 s to 5.8 s over six seeds), more than a run can average out, so the
# suites run at the CLI's default seed and the workload seed orders the jobs.
SUITE_SEED = 42
# (preset, n) of the restricted four-term requests; small cases that make
# the job count large enough for a tail percentile. Z2 at n=4 and Z3 at n=3
# (about 20 ms each) come twice, so the median job falls inside their
# cluster and not in the gap between the 10 ms and 20 ms jobs; Z4 at n=3
# (about 0.15 s) comes three times, so the p75 falls inside its samples
# and not on the one sample of one job.
FOUR_TERM_VERIFY = (
    ("Z2", 1), ("Z2", 2), ("Z2", 3), ("Z2", 4), ("Z2", 4), ("Z2", 5),
    ("Z3", 1), ("Z3", 2), ("Z3", 3), ("Z3", 3),
    ("Z4", 1), ("Z4", 2), ("Z4", 3), ("Z4", 3), ("Z4", 3), ("Z2xZ2", 1),
)


def _suite_check(name: str) -> Callable[[dict], Optional[str]]:
    def check(report: dict) -> Optional[str]:
        (suite,) = report["suites"]
        if not suite["passed"] or suite["failures"]:
            return f"suite failed: {suite['failures'][:3]}"
        bad = _mismatch("cases", suite["cases"], SUITE_CASES[name])
        if bad or name != "independence":
            return bad
        for d in suite["details"]:
            functor, n = d["functor"].split("^")
            want = oracles.derived_values(functor, int(n), d["group"])
            if d["values"] != want:
                return f"{d['functor']}({d['group']}): {d['values']} != {want}"
        return None

    return check


def verify(eh: SimpleNamespace, seed: int, workdir: Path) -> list[Job]:
    jobs = [
        _cli_job(eh, f"verify {name}", ["verify", name, "--seed", str(SUITE_SEED)], _suite_check(name))
        for name in SUITE_CASES
    ]
    # the full suite: two presentations per preset, degrees 1 and 2 for the
    # cyclic presets and degree 1 for Z2xZ2
    jobs.append(_cli_job(eh, "verify four-term", ["verify", "four-term", "--seed", str(SUITE_SEED)],
                         _four_term_check(None, None, 14)))
    jobs += [_four_term_job(eh, preset, n, SUITE_SEED) for preset, n in FOUR_TERM_VERIFY]
    random.Random(f"verify:{seed}").shuffle(jobs)
    return jobs


WORKLOADS = {"derive": derive, "grouphom": grouphom, "snf": snf, "verify": verify}

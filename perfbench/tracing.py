"""Spans around exacthom's public functions, installed from outside.

The program is not edited: each listed function is replaced, in every
exacthom module namespace and module-level dict that holds it, by a wrapper
that records a span (id, parent id, job id, name, start, end) in memory.
Self time is a span's duration minus the time of the wrapped calls it
makes. Work observers (matrix sizes, content hashes for repeat ratios) run
outside the timed interval, and their cost is excluded from the caller's
self time too, so they show only in trace.overhead_s. Times are CPU time of
the process, like the job times of run.py.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import process_time as clock
from types import ModuleType
from typing import Any, Callable, Optional


def _nnz(m: Any) -> int:
    return sum(len(r) - r.count(0) for r in m.entries)


def _observe_smith(t: "Tracer", args: tuple) -> None:
    a = args[0]
    t.counts["linalg.smith_diagonal.entries"] += a.rows * a.cols
    t.counts["linalg.smith_diagonal.nnz"] += _nnz(a)
    t.seen["linalg.smith_diagonal"].add(hash((a.rows, a.cols, a.entries)))


def _observe_matmul(t: "Tracer", args: tuple) -> None:
    a, b = args
    t.seen["linalg.matmul"].add(hash((a.rows, a.cols, b.cols, a.entries, b.entries)))


def _observe_coinvariants(t: "Tracer", args: tuple) -> None:
    m = args[0]
    t.counts["grouphom.coinvariants.entries"] += m.rank * m.rank * (m.group.order - 1)


def _observe_snf(t: "Tracer", args: tuple, result: Any) -> None:
    bits = max(
        (abs(x).bit_length() for m in (result.u, result.v) for r in m.entries for x in r),
        default=0,
    )
    t.maxima["linalg.snf.out_bits"] = max(t.maxima["linalg.snf.out_bits"], bits)


def _observe_build(t: "Tracer", args: tuple, result: Any) -> None:
    for d in result.differentials:
        t.counts["koszul.build.entries"] += d.rows * d.cols
        t.counts["koszul.build.nnz"] += _nnz(d)


# (span name, module, attribute path, observer before the call, after it).
# kos, kos_prime and tensor_complex share the span name koszul.build.
SPANS = (
    ("linalg.smith_diagonal", "linalg", "smith_diagonal", _observe_smith, None),
    ("linalg.snf", "linalg", "snf", None, _observe_snf),
    ("linalg.kernel_basis", "linalg", "kernel_basis", None, None),
    ("linalg.solve", "linalg", "solve", None, None),
    ("linalg.det", "linalg", "det", None, None),
    ("linalg.hnf", "linalg", "hnf", None, None),
    ("linalg.matmul", "linalg", "IntMatrix.__matmul__", _observe_matmul, None),
    ("abelian.ChainComplex", "abelian", "ChainComplex.__post_init__", None, None),
    ("abelian.homology_at", "abelian", "homology_at", None, None),
    ("abelian.canonical_form", "abelian", "canonical_form", None, None),
    ("abelian.homology", "abelian", "homology", None, None),
    ("powers.induced_map", "powers", "induced_map", None, None),
    ("koszul.build", "koszul", "kos", None, _observe_build),
    ("koszul.build", "koszul", "kos_prime", None, _observe_build),
    ("koszul.build", "koszul", "tensor_complex", None, _observe_build),
    ("koszul.derived_from_presentation", "koszul", "derived_from_presentation", None, None),
    ("grouphom.group_homology", "grouphom", "group_homology", None, None),
    ("grouphom.homology_bar", "grouphom", "homology_bar", None, None),
    ("grouphom.homology_cyclic", "grouphom", "homology_cyclic", None, None),
    ("grouphom.GModuleFree", "grouphom", "GModuleFree.__post_init__", None, None),
    ("grouphom.tensor_gmodule", "grouphom", "tensor_gmodule", None, None),
    ("grouphom.coinvariants", "grouphom", "coinvariants", _observe_coinvariants, None),
    ("grouphom.h1_free", "grouphom", "h1_free", None, None),
    ("grouphom.magnus_sequence", "grouphom", "magnus_sequence", None, None),
    ("grouphom.four_term_report", "grouphom", "four_term_report", None, None),
    ("cli.run", "cli", "run", None, None),
    ("verify.run_suite", "verify", "run_suite", None, None),
    ("verify.run_four_term", "verify", "run_four_term", None, None),
)

# Counted, not timed: entries into the bounded modular Smith route, which
# smith_diagonal takes when its integral elimination swells.
COUNTERS = (("linalg.smith_diagonal.fallbacks", "linalg", "_smith_diagonal_bounded"),)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in SPANS))

# Work counted per traced pass, with units.
COUNTS = {
    "linalg.smith_diagonal.entries": "entries",
    "linalg.smith_diagonal.nnz": "entries",
    "linalg.smith_diagonal.fallbacks": "count",
    "koszul.build.entries": "entries",
    "koszul.build.nnz": "entries",
    "grouphom.coinvariants.entries": "entries",
}


def units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for name in SPAN_NAMES:
        out.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
    out.update(COUNTS)
    out.update({
        "linalg.smith_diagonal.repeat_ratio": "1",
        "linalg.matmul.repeat_ratio": "1",
        "linalg.snf.out_bits": "bits",
        "trace.uncovered_share": "1",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return out


class Tracer:
    """Spans and work counters of the jobs run while it is active."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[str, list[float]] = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.seen: dict[str, set] = defaultdict(set)  # content hashes, this job
        self.distinct: dict[str, int] = defaultdict(int)  # summed over jobs
        self.job_time = 0.0
        self.covered_time = 0.0
        self._job: Optional[str] = None
        self._stack: list[list] = []
        self._next_id = 0

    def begin_job(self, job_id: str) -> None:
        self._job = job_id
        self._stack = [[None, 0.0]]

    def end_job(self, elapsed: float) -> None:
        self.job_time += elapsed
        self.covered_time += self._stack[0][1]
        for name, hashes in self.seen.items():
            self.distinct[name] += len(hashes)
        self.seen.clear()
        self._job = None
        self._stack = []

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            t_enter = clock()
            if before is not None:
                before(tracer, args)
            parent = tracer._stack[-1]
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                stat = tracer.stats[name]
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += t1 - t0 - frame[1]
                tracer.spans.append((frame[0], parent[0], tracer._job, name, t0, t1))
            if after is not None:
                after(tracer, args, result)
            parent[1] += clock() - t_enter
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            if tracer._job is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap every listed function; raise if one cannot be wrapped."""
        modules = [
            m for n, m in sys.modules.items() if n == "exacthom" or n.startswith("exacthom.")
        ]
        for name, module, path, before, after in SPANS:
            self._replace(modules, module, path, lambda fn: self.wrap(name, fn, before, after))
        for name, module, path in COUNTERS:
            self._replace(modules, module, path, lambda fn: self.count(name, fn))

    @staticmethod
    def _replace(modules: list[ModuleType], module: str, path: str, make: Callable) -> None:
        owner: Any = sys.modules.get(f"exacthom.{module}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            raise RuntimeError(f"cannot wrap exacthom.{module}.{path}: not found")
        wrapper = make(original)
        setattr(owner, attr, wrapper)
        for m in modules:
            space = vars(m)
            for key, value in list(space.items()):
                if value is original:
                    setattr(m, key, wrapper)
                elif type(value) is dict:
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapper
        for m in modules:
            for key, value in vars(m).items():
                held = value.values() if type(value) is dict else (value,)
                if any(v is original for v in held):
                    raise RuntimeError(
                        f"exacthom.{module}.{path} is still reachable unwrapped "
                        f"as {m.__name__}.{key}"
                    )

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass span and work figures; ratios over the whole traced run."""
        out: dict[str, float] = {}
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.total_s"] = total / passes
            out[f"{name}.self_s"] = own / passes
        for name in COUNTS:
            out[name] = self.counts[name] / passes
        out["linalg.snf.out_bits"] = self.maxima["linalg.snf.out_bits"]
        for name in ("linalg.smith_diagonal", "linalg.matmul"):
            distinct = self.distinct[name]
            out[f"{name}.repeat_ratio"] = self.stats[name][0] / distinct if distinct else 0.0
        covered = self.covered_time / self.job_time if self.job_time else 0.0
        out["trace.uncovered_share"] = 1.0 - covered
        out["trace.spans"] = len(self.spans) / passes
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: id, parent, job, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
